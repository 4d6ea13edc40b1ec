"""Exact linear algebra over the rationals.

Matrices are lists of rows, entries Fraction (or int).  Everything here is
dense Gaussian elimination; sizes stay small (a few hundred at most) so no
attempt is made to be clever about pivoting.
"""

from fractions import Fraction


def _frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def row_echelon(mat):
    """Return (echelon form, pivot column list)."""
    m = _frac_rows(mat)
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


def solve(mat, rhs):
    """Solve mat @ x = rhs exactly.  Returns None when inconsistent.

    When the system is underdetermined an arbitrary solution is returned
    (free variables set to zero).
    """
    if not mat:
        return [] if all(b == 0 for b in rhs) else None
    cols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    ech, pivots = row_echelon(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][cols]
    # pivot rows were normalized, but free columns may contribute; with free
    # variables at zero the pivot entries are already the solution
    for row, b in zip(mat, rhs):
        if sum(Fraction(a) * xv for a, xv in zip(row, x)) != Fraction(b):
            return None
    return x
