"""Exact linear algebra over the rationals.

Matrices are lists of rows, entries Fraction (or int).  Everything here is
dense Gaussian elimination; sizes stay small (a few hundred at most) so no
attempt is made to be clever about pivoting.
"""

from fractions import Fraction


def row_echelon(mat):
    """Return (echelon form, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in mat]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat):
    if not mat or not mat[0]:
        return 0
    _, pivots = row_echelon(mat)
    return len(pivots)
