"""Brute-force module construction, independent of the KL machinery.

Realizes truncated Verma modules by the exact action of the degree-shifted
generators of the Lie algebra (`chevalley.ChevalleyBasis`) on PBW
monomials.

The modules one decomposition builds, M(eta) for eta = lambda - beta, share
the tail (lambda_1, ..., lambda_n), and one `_Block` holds what they have in
common: the PBW basis by weight, each generator's action on it, and the
generator matrices on its weight spaces.  A bracket adds degrees, so
lambda_0 enters in one place only: h_(i,0) acting on a monomial of weight
beta, by <lambda_0 - beta, alpha_i^vee>.  The lowering actions and every
action of degree >= 1 are therefore the same for each module of the block,
and the degree-0 raising and Cartan actions are affine in lambda_0, with
integer coefficients on its entries; each module evaluates those at its own
lambda_0.

Simple characters are extracted as quotients by the maximal proper
submodule, which is computed weight space by weight space: a vector lies in
it iff every degree-shifted raising generator maps it into the part already
found.  Those conditions are the sparse rows of
`TruncatedModule.generator_matrix`, scaled to integers and eliminated by
integer combination; nothing is rounded and no floating point is used.
"""

from __future__ import annotations

from math import gcd, lcm

from .characters import (FormalCharacter, cone, decompose_in_block, height,
                         verma_character)
from .chevalley import ChevalleyBasis
from .trunc_weights import TruncatedWeight, same_block

MAX_TOTAL_DIMENSION = 200000


def _reads_lambda0(gen):
    """Whether a generator's action on the PBW basis depends on lambda_0:
    true of the degree-0 raising and Cartan generators only."""
    return gen[2] == 0 and gen[0] != "f"


def _evaluate(terms, values):
    """{key: sum of c * values[j]} over terms {(key, j): c}, zeros dropped."""
    out = {}
    for (k, j), c in terms.items():
        out[k] = out.get(k, 0) + c * values[j]
    return {k: c for k, c in out.items() if c}


class _Block:
    """What the truncated Verma modules with one datum and one tail share,
    up to a depth: the PBW basis, each generator's action on it, and the
    generator matrices on its weight spaces.

    The basis and every action are computed once, whatever lambda_0 is.
    The action of a generator that reads lambda_0 (`_reads_lambda0`) is
    stored with keys (monomial, j): the coefficient of values[j], where
    values = (1,) + the coordinates of lambda_0.  Every other action is
    {monomial: coefficient} as it is.  The basis is walked when the first
    module takes its window, so a block that builds no module costs little.
    """

    def __init__(self, datum, tail, depth):
        self.datum = datum
        self.tail = tuple(tail)
        self.n = len(self.tail)
        self.depth = depth
        self.chev = ChevalleyBasis.get(datum)
        self.spaces = None
        self.position = {}      # monomial -> index in its space
        self._acts = {}
        self._matrices = {}
        # <root, alpha_i^vee> by simple index i and positive root index
        self._pairings = [[sum(a * r for a, r in zip(row, root))
                           for root in self.chev.roots] for row in datum.cartan]

    def _walk(self):
        spaces = self.spaces = {beta: [] for beta in cone(self.datum.rank,
                                                          self.depth)}
        position, depth = self.position, self.depth
        # generators in position order, of nondecreasing height
        gens = [((ri, d), root, height(root))
                for ri, root in enumerate(self.chev.roots)
                for d in range(self.n + 1)]

        def rec(mono, beta, ht, start):
            # depth first over nondecreasing positions, so that each space
            # fills in lexicographic order
            space = spaces[beta]
            position[mono] = len(space)
            space.append(mono)
            if len(position) > MAX_TOTAL_DIMENSION:
                raise ValueError("truncated Verma module exceeds size budget")
            for pos in range(start, len(gens)):
                gen, root, h = gens[pos]
                if ht + h > depth:
                    break
                rec(mono + (gen,), tuple(b + r for b, r in zip(beta, root)),
                    ht + h, pos)

        rec((), (0,) * self.datum.rank, 0, 0)
        del rec     # break the cycle rec -> cell -> rec

    def window(self, depth):
        """The weight spaces of height at most depth, in cone order."""
        if self.spaces is None:
            self._walk()
        return {beta: self.spaces[beta]
                for beta in cone(self.datum.rank, depth)}

    def bracket(self, gen1, gen2):
        """Bracket of two degree-shifted generators, dropping t^(>n); the
        Chevalley basis keeps one list per generator pair."""
        deg = gen1[2] + gen2[2]
        if deg > self.n:
            return []
        chev, key = self.chev, (gen1, gen2)
        if key not in chev.shifted:
            x, y = ((k, i if k == "h" else chev.roots[i]) for k, i, _ in key)
            chev.shifted[key] = [(c, (k, r if k == "h" else chev.index[r], deg))
                                 for c, (k, r) in chev.bracket(x, y)]
        return chev.shifted[key]

    def act(self, gen, mono):
        """Action of a generator (kind, index, degree) on a PBW monomial, in
        PBW normal form, keyed as the class docstring says.  h_(i,0) acts
        on a monomial of weight beta by <lambda_0 - beta, alpha_i^vee>, and
        the recursion for e_(i,0) is linear in that action.
        """
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
            # gen f_head rest = f_head (gen rest) + [gen, f_head] rest, and
            # f_head m is m with head prepended when head comes first
            head, rest = mono[0], mono[1:]
            fhead = ("f", head[0], head[1])
            out = {}
            if _reads_lambda0(gen):
                for (m, j), c in self.act(gen, rest).items():
                    if not m or head <= m[0]:
                        k = ((head,) + m, j)
                        out[k] = out.get(k, 0) + c
                        continue
                    for m2, c2 in self.act(fhead, m).items():
                        k = (m2, j)
                        out[k] = out.get(k, 0) + c * c2
                for cb, el in self.bracket(gen, fhead):
                    if _reads_lambda0(el):
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
            if not all(out.values()):
                out = {k: c for k, c in out.items() if c}
        self._acts[key] = out
        return out

    def matrix(self, gen, beta):
        """Sparse rows {target position: {entry: coefficient}} of the
        generator on the weight space at beta, and the target beta; an entry
        is a source position, or (source position, j) when the generator
        reads lambda_0.  A lowering image past the block's depth is
        dropped; any other image outside the basis raises RuntimeError."""
        key = (gen, beta)
        hit = self._matrices.get(key)
        if hit is not None:
            return hit
        kind = gen[0]
        if kind == "h":
            target = beta
        else:
            sign = -1 if kind == "e" else 1
            target = tuple(b + sign * r
                           for b, r in zip(beta, self.chev.roots[gen[1]]))
        affine, position = _reads_lambda0(gen), self.position
        rows = {}
        for col, mono in enumerate(self.spaces[beta]):
            for k, c in self.act(gen, mono).items():
                row = position.get(k[0] if affine else k)
                if row is None:
                    if kind != "f":
                        raise RuntimeError("action left the depth window")
                    continue
                rows.setdefault(row, {})[(col, k[1]) if affine else col] = c
        hit = self._matrices[key] = rows, target
        return hit


class TruncatedModule:
    """Verma module over g tensor C[t]/(t^(n+1)), cut off at a finite depth.

    Basis vectors are PBW monomials in the degree-shifted lowering
    operators, sorted by (root position, degree).  A monomial is a tuple of
    (root index, degree) pairs; the highest weight vector is ().

    The basis, the action and the generator matrices live in a `_Block`
    shared by every module with this datum and tail: `verma_decomposition`
    passes one to all the modules it builds, and a module built alone makes
    its own.  Only the degree-0 raising and Cartan generators read
    lambda_0, through h_(i,0) acting by <lambda_0 - beta, alpha_i^vee>; the
    module evaluates their block entries at its own lambda_0.
    """

    def __init__(self, datum, lam, depth, block=None):
        datum.check_rank(lam[0])
        if block is None:
            block = _Block(datum, lam.tail(), depth)
        elif (block.datum is not datum or block.tail != lam.tail()
              or depth > block.depth):
            raise ValueError("module does not lie in the given block")
        self.datum = datum
        self.lam = lam
        self.n = lam.level
        self.depth = depth
        self.chev = block.chev
        self.block = block
        self.spaces = block.window(depth)
        self.position = block.position
        self._values = (1,) + lam[0].coords
        self._integral = all(type(c) is int
                             for w in lam.components for c in w.coords)

    # -- the action ----------------------------------------------------

    def _bracket_trunc(self, gen1, gen2):
        """Bracket of two degree-shifted generators, dropping t^(>n)."""
        return self.block.bracket(gen1, gen2)

    def act_gen(self, gen, mono):
        """Action of a generator (kind, index, degree) on a basis monomial.

        Returns {monomial: coefficient} in PBW normal form.  Coefficients
        are ints; only a non-integral entry of lambda makes them Fractions.
        """
        out = self.block.act(gen, mono)
        return _evaluate(out, self._values) if _reads_lambda0(gen) else out

    def generator_matrix(self, gen, beta):
        """Sparse rows {target position: {source position: coefficient}} of
        the generator on the weight space at beta, and the target beta.  A
        lowering image that leaves the depth window is dropped; any other
        image that leaves it raises RuntimeError.  The rows of a generator
        that does not read lambda_0 are the block's own: do not modify
        them."""
        rows, target = self.block.matrix(gen, tuple(beta))
        if target not in self.spaces:
            if rows and gen[0] != "f":
                raise RuntimeError("action left the depth window")
            return {}, target
        if _reads_lambda0(gen):
            values = self._values
            rows = {r: out for r, out in
                    ((r, _evaluate(row, values)) for r, row in rows.items())
                    if out}
        return rows, target

    def dimension(self, beta):
        return len(self.spaces.get(tuple(beta), []))


def build_verma(datum, lam, depth):
    module = TruncatedModule(datum, lam, depth)
    # cross-check dimensions against the character formula
    expected = verma_character(datum, lam, depth)
    for beta in module.spaces:
        if module.dimension(beta) != expected.coefficient(beta):
            raise RuntimeError("weight space %r disagrees with the character"
                               % (beta,))
    return module


def _raising_rows(module, gen, beta):
    """`generator_matrix` of a raising generator at beta, scaled by one
    common factor (the lcm of its denominators) to integers.  When every
    entry of lambda is an int the rows are ints already, and are returned
    as they are."""
    rows, _ = module.generator_matrix(gen, beta)
    if module._integral:
        return rows
    scale = lcm(*(c.denominator for row in rows.values() for c in row.values()))
    return {r: {col: c.numerator * (scale // c.denominator)
                for col, c in row.items()}
            for r, row in rows.items()}


def _eliminate(basis, row):
    """Add an integer row {col: value} to the span of basis {pivot: row}.

    Each basis row's least column is its pivot, and it is stored divided
    by the gcd of its entries. The row (copied once) is combined in place
    with basis rows, in integers, until it is zero or its least column is a
    new pivot. Until then it differs only by a positive factor from the
    row that a division at every step would give, so the stored row is the
    same.
    """
    row = {c: v for c, v in row.items() if v}
    while row:
        pivot = min(row)
        other = basis.get(pivot)
        if other is None:
            g = gcd(*row.values())
            if g != 1:
                for c in row:
                    row[c] //= g
            basis[pivot] = row
            return
        g = gcd(other[pivot], row[pivot])
        a, b = other[pivot] // g, row[pivot] // g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in other.items():
            w = row.get(c, 0) - b * v
            if w:
                row[c] = w
            else:
                del row[c]


def simple_character(module):
    """Character of the simple quotient of the Verma, to the module depth.

    For each weight space, the maximal submodule consists of the vectors
    mapped into the maximal submodule one level up by every raising
    generator attached to a simple root; the quotient dimensions assemble
    the character.
    """
    datum = module.datum
    rank = datum.rank
    simple_idx = [module.chev.index[datum.simple_root(i)] for i in range(rank)]
    constraints = {}    # beta -> basis rows whose joint kernel is N^beta
    table = {}
    for beta in sorted(module.spaces, key=lambda b: (height(b), b)):
        dim = module.dimension(beta)
        if height(beta) == 0:
            constraints[beta] = [{0: 1}] if dim else []
            table[beta] = dim
            continue
        basis = {}
        for ri in simple_idx:
            root = module.chev.roots[ri]
            upper = constraints.get(tuple(b - r for b, r in zip(beta, root)))
            if not upper:       # N is everything there: no condition
                continue
            for deg in range(module.n + 1):
                images = _raising_rows(module, ("e", ri, deg), beta)
                for crow in upper:
                    row = {}
                    for r, cr in crow.items():
                        for c, v in images.get(r, {}).items():
                            row[c] = row.get(c, 0) + cr * v
                    _eliminate(basis, row)
        constraints[beta] = list(basis.values())
        table[beta] = len(basis)
    return FormalCharacter(base=module.lam[0], depth=module.depth, table=table)


def invariants_character(module, levi_indices):
    """Character of the joint kernel of the raising generators outside the
    Levi (the nilradical of degrees 0..n), weight space by weight space."""
    datum = module.datum
    levi = set(levi_indices)
    outside = [module.chev.index[r] for r in datum.positive_roots
               if any(c and (j not in levi) for j, c in enumerate(r))]
    table = {}
    for beta in sorted(module.spaces, key=lambda b: (height(b), b)):
        basis = {}
        for ri in outside:
            for deg in range(module.n + 1):
                for row in _raising_rows(module, ("e", ri, deg), beta).values():
                    _eliminate(basis, row)
        table[beta] = module.dimension(beta) - len(basis)
    return FormalCharacter(base=module.lam[0], depth=module.depth, table=table)


_SIMPLE_CHAR_MEMO = {}
_DECOMP_MEMO = {}


def _simple_char(datum, lam, depth, block=None):
    """simple_character at `depth`, cut from the deepest one built for lam.

    The entry at beta depends only on the weight spaces of smaller height,
    so a deeper character holds every shallower one.  A module that has to
    be built is built in `block` when one is given.
    """
    key = (datum.key, lam)
    ch = _SIMPLE_CHAR_MEMO.get(key)
    if ch is None or ch.depth < depth:
        ch = _SIMPLE_CHAR_MEMO[key] = simple_character(
            TruncatedModule(datum, lam, depth, block))
    if ch.depth == depth:
        return ch
    return FormalCharacter(base=ch.base, depth=depth, table={
        b: d for b, d in ch.table.items() if height(b) <= depth})


def verma_decomposition(datum, lam, depth):
    """Multiplicities {offset beta: [M_lam : L_{lam_0 - beta}]} by greedy
    comparison of the Verma character with brute-force simple characters.

    Every simple asked for has lam's tail and fits in lam's depth, so all
    the modules built here share one `_Block`, dropped on return."""
    key = (datum.key, lam, depth)
    if key not in _DECOMP_MEMO:
        character = verma_character(datum, lam, depth)
        block = _Block(datum, lam.tail(), depth)

        def provider(beta):
            eta0 = lam[0] - datum.root_weight(beta)
            eta = TruncatedWeight((eta0,) + lam.tail())
            return _simple_char(datum, eta, depth - height(beta), block)

        _DECOMP_MEMO[key] = decompose_in_block(datum, character, provider)
    return _DECOMP_MEMO[key]


def oracle_multiplicity(datum, lam, nu, depth=None):
    """[M_lam : L_nu] from explicit module construction.

    `depth` defaults to the height of lambda_0 - nu_0 (the minimum needed);
    a larger value decomposes more of the Verma in one pass.  A rank or
    level mismatch raises ValueError.
    """
    datum.check_rank(lam[0], nu[0])
    if lam.level != nu.level:
        raise ValueError("weights at different truncation levels")
    if not same_block(lam, nu):
        return 0
    beta = datum.dominance_offset(nu[0], lam[0])
    if beta is None:
        return 0
    if depth is None:
        depth = height(beta)
    if height(beta) > depth:
        raise ValueError("depth too small for the requested weight")
    return verma_decomposition(datum, lam, depth).get(beta, 0)
