"""Dense reference for the module oracle's eliminations, used only by tests.

`simple_character` is the oracle's original dense formulation: each
constraint is a full `Fraction` row, the product of a reduced constraint row
one level up with the raising generator's matrix, and each weight space is
reduced by `linalg.row_echelon`. `invariants_character` stacks the dense
generator matrices and takes their rank the same way. The sparse integer
eliminations in `trunco.oracle` must give the same characters, and
`reduced_echelon` is the dense form that each of its bases must be a
multiple of, row by row. `TupleBlock` is the module action as first
written, on PBW monomials kept as tuples; the numbered action in
`trunco.oracle` must give the same generator matrices.
"""

from fractions import Fraction

from trunco import linalg
from trunco.characters import FormalCharacter, cone, height
from trunco.chevalley import ChevalleyBasis


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


def reduced_echelon(rows):
    """Reduced row echelon form of sparse rows {col: value} over the
    rationals, as {pivot: {col: Fraction}}, each pivot entry 1."""
    cols = sorted({c for row in rows for c in row})
    ech, pivots = linalg.row_echelon([[row.get(c, 0) for c in cols]
                                      for row in rows])
    return {cols[p]: {cols[c]: v for c, v in enumerate(row) if v}
            for row, p in zip(ech, pivots)}


class TupleBlock:
    """The module action as first written, for one datum, lambda and depth.

    A PBW monomial is a tuple of (root index, degree) pairs, and actions
    are memoized under (generator, monomial).  The action of a degree-0
    raising or Cartan generator is kept affine in lambda_0, with keys
    (monomial, j) for the coefficient of values[j], values = (1,) + the
    coordinates of lambda_0, and evaluated when a matrix is read.
    """

    def __init__(self, datum, lam, depth):
        self.datum, self.depth = datum, depth
        self.tail = tuple(lam.tail())
        self.n = len(self.tail)
        self.values = (1,) + lam[0].coords
        self.chev = ChevalleyBasis.get(datum)
        self.spaces = {beta: [] for beta in cone(datum.rank, depth)}
        self.position = {}
        self._acts, self._brackets = {}, {}
        self._pairings = [[sum(a * r for a, r in zip(row, root))
                           for root in self.chev.roots] for row in datum.cartan]
        gens = [((ri, d), root, height(root))
                for ri, root in enumerate(self.chev.roots)
                for d in range(self.n + 1)]

        def rec(mono, beta, ht, start):
            space = self.spaces[beta]
            self.position[mono] = len(space)
            space.append(mono)
            for pos in range(start, len(gens)):
                gen, root, h = gens[pos]
                if ht + h > depth:
                    break
                rec(mono + (gen,), tuple(b + r for b, r in zip(beta, root)),
                    ht + h, pos)

        rec((), (0,) * datum.rank, 0, 0)

    @staticmethod
    def reads_lambda0(gen):
        return gen[2] == 0 and gen[0] != "f"

    def bracket(self, gen1, gen2):
        deg = gen1[2] + gen2[2]
        if deg > self.n:
            return []
        chev, key = self.chev, (gen1, gen2)
        if key not in self._brackets:
            x, y = ((k, i if k == "h" else chev.roots[i]) for k, i, _ in key)
            self._brackets[key] = [
                (c, (k, r if k == "h" else chev.index[r], deg))
                for c, (k, r) in chev.bracket(x, y)]
        return self._brackets[key]

    def act(self, gen, mono):
        kind, i, d = gen
        if kind == "f" and (not mono or (i, d) <= mono[0]):
            return {((i, d),) + mono: 1}
        if kind == "h" and not d:
            out = {(mono, i + 1): 1}
            shift = sum(self._pairings[i][ri] for ri, _ in mono)
            if shift:
                out[(mono, 0)] = -shift
            return out
        key = (gen, mono)
        out = self._acts.get(key)
        if out is not None:
            return out
        if not mono:
            c = self.tail[d - 1].coords[i] if kind == "h" else 0
            out = {(): c} if c else {}
        else:
            head, rest = mono[0], mono[1:]
            fhead = ("f", head[0], head[1])
            out = {}
            if self.reads_lambda0(gen):
                for (m, j), c in self.act(gen, rest).items():
                    if not m or head <= m[0]:
                        k = ((head,) + m, j)
                        out[k] = out.get(k, 0) + c
                        continue
                    for m2, c2 in self.act(fhead, m).items():
                        k = (m2, j)
                        out[k] = out.get(k, 0) + c * c2
                for cb, el in self.bracket(gen, fhead):
                    if self.reads_lambda0(el):
                        for k, c in self.act(el, rest).items():
                            out[k] = out.get(k, 0) + cb * c
                    else:
                        for m, c in self.act(el, rest).items():
                            k = (m, 0)
                            out[k] = out.get(k, 0) + cb * c
            else:
                for m, c in self.act(gen, rest).items():
                    if not m or head <= m[0]:
                        m2 = (head,) + m
                        out[m2] = out.get(m2, 0) + c
                        continue
                    for m2, c2 in self.act(fhead, m).items():
                        out[m2] = out.get(m2, 0) + c * c2
                for cb, el in self.bracket(gen, fhead):
                    for m, c in self.act(el, rest).items():
                        out[m] = out.get(m, 0) + cb * c
            out = {k: c for k, c in out.items() if c}
        self._acts[key] = out
        return out

    def generator_matrix(self, gen, beta):
        """Rows {target position: {source position: coefficient}} and the
        target beta, as `TruncatedModule.generator_matrix` gives them."""
        kind = gen[0]
        if kind == "h":
            target = beta
        else:
            sign = -1 if kind == "e" else 1
            target = tuple(b + sign * r
                           for b, r in zip(beta, self.chev.roots[gen[1]]))
        affine = self.reads_lambda0(gen)
        rows = {}
        for col, mono in enumerate(self.spaces[beta]):
            for k, c in self.act(gen, mono).items():
                if affine:
                    k, j = k
                    c *= self.values[j]
                row = self.position.get(k)
                if row is None:
                    if kind != "f":
                        raise RuntimeError("action left the depth window")
                    continue
                entries = rows.setdefault(row, {})
                entries[col] = entries.get(col, 0) + c
        rows = {r: {c: v for c, v in row.items() if v} for r, row in rows.items()}
        return {r: row for r, row in rows.items() if row}, target
