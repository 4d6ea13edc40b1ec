"""Exact Gaussian elimination over the rationals, for small dense matrices.

Matrices are lists of rows, entries Fraction (or int).  Its one caller in
the package is `RootDatum`, which inverts its Cartan matrix with it; the KL
layer decides block membership from its integer descents, and the module
oracle eliminates its own sparse integer rows.
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
