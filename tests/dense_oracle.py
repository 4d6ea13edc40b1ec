"""Dense reference for the module oracle's eliminations, used only by tests.

`simple_character` is the oracle's original dense formulation: each
constraint is a full `Fraction` row, the product of a reduced constraint row
one level up with the raising generator's matrix, and each weight space is
reduced by `linalg.row_echelon`. `invariants_character` stacks the dense
generator matrices and takes their rank the same way. The sparse integer
eliminations in `trunco.oracle` must give the same characters.
`eliminate` is the sparse elimination step as first written, building a
new row at each combination; the in-place step must give the same basis.
"""

from fractions import Fraction
from math import gcd

from trunco import linalg
from trunco.characters import FormalCharacter, height


def generator_matrix(module, gen, beta):
    """The module's sparse generator matrix as dense rows, and its target."""
    rows, target = module.generator_matrix(gen, beta)
    return [[rows.get(r, {}).get(c, 0) for c in range(module.dimension(beta))]
            for r in range(module.dimension(target))], target


def _rank(rows):
    return len(linalg.row_echelon(rows)[1]) if rows and rows[0] else 0


def simple_character(module):
    datum = module.datum
    rank = datum.rank
    simple_idx = [module.chev.index[datum.simple_root(i)] for i in range(rank)]
    constraints = {}    # beta -> reduced matrix whose nullspace is N^beta
    table = {}
    for beta in sorted(module.spaces, key=lambda b: (height(b), b)):
        dim = module.dimension(beta)
        if height(beta) == 0:
            constraints[beta] = [[Fraction(1)] * 1] if dim else []
            table[beta] = dim
            continue
        rows = []
        for ri in simple_idx:
            for deg in range(module.n + 1):
                mat, target = generator_matrix(module, ("e", ri, deg), beta)
                upper = constraints.get(target)
                if upper is None or not mat:
                    continue
                for crow in upper:
                    rows.append([
                        sum(cr * mat[r][c] for r, cr in enumerate(crow))
                        for c in range(dim)])
        ech, pivots = linalg.row_echelon(rows)
        constraints[beta] = [ech[r] for r in range(len(pivots))]
        table[beta] = len(pivots)
    return FormalCharacter(base=module.lam[0], depth=module.depth, table=table)


def invariants_character(module, levi_indices):
    datum = module.datum
    levi = set(levi_indices)
    outside = [module.chev.index[r] for r in datum.positive_roots
               if any(c and (j not in levi) for j, c in enumerate(r))]
    table = {}
    for beta in sorted(module.spaces, key=lambda b: (height(b), b)):
        dim = module.dimension(beta)
        rows = []
        for ri in outside:
            for deg in range(module.n + 1):
                mat, _ = generator_matrix(module, ("e", ri, deg), beta)
                rows.extend(mat)
        table[beta] = dim - _rank(rows)
    return FormalCharacter(base=module.lam[0], depth=module.depth, table=table)


def eliminate(basis, row):
    """Add an integer row {col: value} to the span of basis {pivot: row}."""
    while True:
        row = {c: v for c, v in row.items() if v}
        if not row:
            return
        g = gcd(*row.values())
        row = {c: v // g for c, v in row.items()}
        pivot = min(row)
        other = basis.get(pivot)
        if other is None:
            basis[pivot] = row
            return
        a, b = other[pivot], row[pivot]
        row = {c: a * row.get(c, 0) - b * other.get(c, 0)
               for c in row.keys() | other.keys()}
