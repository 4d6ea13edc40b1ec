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
lambda_0.  Inside the block, monomials and generators are numbered, so the
memoized actions are keyed by integers.  A decomposition reads its Verma
character off the sizes of the block's weight spaces, which `build_verma`
checks against the convolution `verma_character` counts.

Simple characters are extracted as quotients by the maximal proper
submodule, which is computed weight space by weight space: a vector lies in
it iff every degree-shifted raising generator maps it into the part already
found.  Each condition is a reduced row one level up times a raising
generator's sparse matrix, scaled to integers; each weight space keeps its
conditions in reduced integer echelon form, so a row has at most 1 + dim N
entries where N is the part found.  Nothing is rounded and no floating
point is used.
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


def _combine(rows, u, width, values):
    """sum of u[r] * rows[r] over u {r: coefficient}, as {column: value},
    zeros dropped: an entry k of a block row lies in column k // width and
    is multiplied by values[k % width]."""
    out = {}
    for r, cu in u.items():
        for k, c in rows.get(r, {}).items():
            col, j = divmod(k, width)
            out[col] = out.get(col, 0) + cu * c * values[j]
    return {col: v for col, v in out.items() if v}


class _Block:
    """What the truncated Verma modules with one datum and one tail share,
    up to a depth: the PBW basis, each generator's action on it, and the
    generator matrices on its weight spaces.

    `spaces` holds the PBW monomials as tuples, each space in
    lexicographic order.  Inside the block a monomial is a number: 0 is
    the empty monomial, and every other one is its head generator's
    position prepended to the number of the rest, through one table keyed
    by (rest, head); `number` and `monomial` translate.  A generator is a
    number too: f_(r,d) at its position, then e, then h.  Actions are
    memoized under these numbers, and the basis and every action are
    computed once, whatever lambda_0 is.  The action of a generator that
    reads lambda_0 (`_reads_lambda0`) is {m * width + j: coefficient of
    values[j]}, where values = (1,) + the coordinates of lambda_0 and
    width = rank + 1; every other action is {m: coefficient}.  A lowering
    image past the depth is numbered when first met, outside the basis.
    The basis is walked when the first module takes its window, so a block
    that builds no module costs little.
    """

    def __init__(self, datum, tail, depth):
        self.datum = datum
        self.tail = tuple(tail)
        self.n = len(self.tail)
        self.depth = depth
        self.chev = ChevalleyBasis.get(datum)
        self.spaces = None
        self.width = datum.rank + 1
        degrees = range(self.n + 1)
        gens = self._gens = [(k, i, d) for k in ("f", "e") for i in
                             range(len(self.chev.roots)) for d in degrees]
        self._nf = len(gens) // 2
        gens += [("h", i, d) for i in range(datum.rank) for d in degrees]
        self._code = {gen: g for g, gen in enumerate(gens)}
        self._ncodes = len(gens)
        self._affine = [_reads_lambda0(gen) for gen in gens]
        # by monomial number: head position (_nf for the empty monomial),
        # rest, weight, and index in its space (set by the walk; None past
        # the depth)
        self._head, self._rest = [self._nf], [0]
        self._weight, self._pos = [(0,) * datum.rank], None
        self._prepended, self._acts = {}, {}
        self._brackets, self._matrices = {}, {}

    def _walk(self):
        rank, depth, nf = self.datum.rank, self.depth, self._nf
        spaces = self.spaces = {beta: [] for beta in cone(rank, depth)}
        ids = self._ids = {beta: [] for beta in spaces}
        heads, rests, weights = self._head, self._rest, self._weight
        prepended, appended = self._prepended, {}
        fgens = [gen[1:] for gen in self._gens[:nf]]
        roots = [self.chev.roots[ri] for ri, _ in fgens]
        above = {beta: [tuple(b + r for b, r in zip(beta, root))
                        for root in roots] for beta in spaces}
        # f positions run by nondecreasing height: those below stop[ht]
        # fit above a monomial of height ht
        heights = [height(root) for root in roots]
        stop = [sum(h <= depth - ht for h in heights)
                for ht in range(depth + 1)]

        def rec(m, mono, beta, ht, rest, start):
            # depth first, over nondecreasing positions taken in decreasing
            # order, so each space fills in decreasing lexicographic order.
            # A monomial's rest is then numbered before it: the rest of a
            # power of one generator is its parent, and any other rest is
            # lexicographically larger and no prefix of it
            spaces[beta].append(mono)
            ids[beta].append(m)
            for p in range(stop[ht] - 1, start - 1, -1):
                c = len(heads)
                if c >= MAX_TOTAL_DIMENSION:
                    raise ValueError(
                        "truncated Verma module exceeds size budget")
                crest = appended[rest * nf + p] if m else 0
                head = heads[m] if m else p
                heads.append(head)
                rests.append(crest)
                weights.append(above[beta][p])
                prepended[crest * nf + head] = appended[m * nf + p] = c
                rec(c, mono + (fgens[p],), weights[c], ht + heights[p],
                    crest, p)

        rec(0, (), weights[0], 0, 0, 0)
        del rec     # break the cycle rec -> cell -> rec
        self._pos = [0] * len(heads)
        for beta, space in spaces.items():
            space.reverse()
            ids[beta].reverse()
            for k, m in enumerate(ids[beta]):
                self._pos[m] = k

    def window(self, depth):
        """The weight spaces of height at most depth, in cone order."""
        if self.spaces is None:
            self._walk()
        return {beta: self.spaces[beta]
                for beta in cone(self.datum.rank, depth)}

    def _prepend(self, m, p):
        """The number of the monomial f_p m, where p is at most m's head."""
        key = m * self._nf + p
        out = self._prepended.get(key)
        if out is None:
            out = self._prepended[key] = len(self._head)
            self._head.append(p)
            self._rest.append(m)
            root = self.chev.roots[self._gens[p][1]]
            self._weight.append(tuple(b + r for b, r in
                                      zip(self._weight[m], root)))
            self._pos.append(None)
        return out

    def number(self, mono):
        """The number of a PBW monomial, a tuple of (root index, degree)."""
        m = 0
        for ri, d in reversed(mono):
            m = self._prepend(m, ri * (self.n + 1) + d)
        return m

    def monomial(self, m):
        """The PBW monomial numbered m."""
        mono = []
        while m:
            mono.append(self._gens[self._head[m]][1:])
            m = self._rest[m]
        return tuple(mono)

    def bracket(self, g1, g2):
        """Bracket of the generators numbered g1 and g2, dropping t^(>n),
        as (integer coefficient, generator number) pairs, kept in
        `_brackets`."""
        key = g1 * self._ncodes + g2
        if key not in self._brackets:
            chev, gens = self.chev, (self._gens[g1], self._gens[g2])
            deg = gens[0][2] + gens[1][2]
            x, y = ((k, i if k == "h" else chev.roots[i]) for k, i, _ in gens)
            self._brackets[key] = [] if deg > self.n else [
                (c, self._code[k, r if k == "h" else chev.index[r], deg])
                for c, (k, r) in chev.bracket(x, y)]
        return self._brackets[key]

    def act(self, g, m):
        """Action of generator g on monomial m, in PBW normal form, both by
        number and keyed as the class docstring says.  h_(i,0) acts on a
        monomial of weight beta by <lambda_0 - beta, alpha_i^vee>, and the
        recursion for e_(i,0) is linear in that action.
        """
        key = m * self._ncodes + g
        out = self._acts.get(key)
        if out is not None:
            return out
        kind, i, d = self._gens[g]
        head = self._head[m]
        if kind == "f" and g <= head:
            out = {self._prepend(m, g): 1}
        elif kind == "h" and not d:
            w = m * self.width
            shift = sum(a * b for a, b in zip(self.datum.cartan[i],
                                              self._weight[m]))
            out = {w + i + 1: 1, w: -shift} if shift else {w + i + 1: 1}
        elif not m:
            c = self.tail[d - 1].coords[i] if kind == "h" else 0
            out = {0: c} if c else {}
        else:
            # g f_head rest = f_head (g rest) + [g, f_head] rest, and f_head t
            # is t with head prepended when head comes first; memo hits are
            # read here, not through a call
            act, acts = self.act, self._acts
            heads, table = self._head, self._prepended
            ncodes, nf, rest = self._ncodes, self._nf, self._rest[m]
            width = self.width if self._affine[g] else 1
            out = {}
            terms = acts.get(rest * ncodes + g)
            if terms is None:
                terms = act(g, rest)
            for k, c in terms.items():
                t, j = divmod(k, width)
                if head <= heads[t]:
                    # a prepended monomial is never 0, the empty one
                    t = table.get(t * nf + head) or self._prepend(t, head)
                    k = t * width + j
                    out[k] = out.get(k, 0) + c
                    continue
                moved = acts.get(t * ncodes + head)
                if moved is None:
                    moved = act(head, t)
                for t, c2 in moved.items():
                    k = t * width + j
                    out[k] = out.get(k, 0) + c * c2
            brackets = self._brackets.get(g * ncodes + head)
            if brackets is None:
                brackets = self.bracket(g, head)
            for cb, el in brackets:
                scale = 1 if self._affine[el] else width
                terms = acts.get(rest * ncodes + el)
                if terms is None:
                    terms = act(el, rest)
                for k, c in terms.items():
                    k *= scale
                    out[k] = out.get(k, 0) + cb * c
            if not all(out.values()):
                out = {k: c for k, c in out.items() if c}
        self._acts[key] = out
        return out

    def matrix(self, gen, beta):
        """Sparse rows {target position: {entry: coefficient}} of the
        generator on the weight space at beta, and the target beta; an entry
        is a source position col, or col * width + j when the generator
        reads lambda_0.  A lowering image past the block's depth is
        dropped; any other image outside the basis raises RuntimeError."""
        key = (gen, beta)
        hit = self._matrices.get(key)
        if hit is not None:
            return hit
        kind, g = gen[0], self._code[gen]
        if kind == "h":
            target = beta
        else:
            sign = -1 if kind == "e" else 1
            target = tuple(b + sign * r
                           for b, r in zip(beta, self.chev.roots[gen[1]]))
        width = self.width if self._affine[g] else 1
        position, rows = self._pos, {}
        for col, m in enumerate(self._ids[beta]):
            for k, c in self.act(g, m).items():
                t, j = divmod(k, width)
                row = position[t]
                if row is None:
                    if kind != "f":
                        raise RuntimeError("action left the depth window")
                    continue
                rows.setdefault(row, {})[col * width + j] = c
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
        self._values = (1,) + lam[0].coords
        self._integral = all(type(c) is int
                             for w in lam.components for c in w.coords)

    # -- the action ----------------------------------------------------

    def act_gen(self, gen, mono):
        """Action of a generator (kind, index, degree) on a basis monomial.

        Returns {monomial: coefficient} in PBW normal form.  Coefficients
        are ints; only a non-integral entry of lambda makes them Fractions.
        """
        block = self.block
        width = block.width if _reads_lambda0(gen) else 1
        out = block.act(block._code[gen], block.number(mono))
        out = _combine({0: out}, {0: 1}, width, self._values)
        return {block.monomial(m): c for m, c in out.items()}

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
            rows = {r: out for r, out in (
                (r, _combine(rows, {r: 1}, self.block.width, self._values))
                for r in rows) if out}
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


def _constraint_rows(module, gen, beta, upper=None):
    """The nonzero rows u A, as {source position: int}, for u in upper,
    each {target position: coefficient}, where A is the raising generator's
    matrix at beta; by default the rows of A itself.  The lambda_0-affine
    entries of the block's rows are evaluated at the module's lambda_0 as
    they are read, and each row is scaled by its own denominators to
    integers."""
    rows, target = module.block.matrix(gen, beta)
    if target not in module.spaces:
        if rows:
            raise RuntimeError("action left the depth window")
        return
    width = module.block.width if _reads_lambda0(gen) else 1
    values = module._values
    for u in ({r: 1} for r in rows) if upper is None else upper:
        out = _combine(rows, u, width, values)
        if out and not module._integral:
            scale = lcm(*(v.denominator for v in out.values()))
            out = {c: v.numerator * (scale // v.denominator)
                   for c, v in out.items()}
        if out:
            yield out


def _eliminate(basis, row):
    """Add an integer row {col: nonzero value} to the span of basis
    {pivot: row}, kept in reduced echelon form: each row is primitive, its
    least column is its pivot, with a positive entry, and no other row has
    an entry in a pivot column.  Every step scales a row by a nonzero
    factor or subtracts a multiple of another row, so the span is
    unchanged; when the joint kernel of the rows has dimension k, each row
    has at most 1 + k entries.  The row may be modified.
    """
    for pivot in [c for c in row if c in basis]:
        _reduce(row, basis[pivot], pivot)
    if not row:
        return
    pivot = min(row)
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g
    for other in basis.values():
        if pivot in other:
            _reduce(other, row, pivot)
            g = gcd(*other.values())
            if g != 1:
                for c in other:
                    other[c] //= g
    basis[pivot] = row


def _reduce(row, other, pivot):
    """Clear row's entry at pivot in place with other, whose entry there is
    positive, scaling row by a positive integer."""
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

    For each weight space, the maximal submodule N consists of the vectors
    mapped into N one level up by every raising generator attached to a
    simple root.  The conditions are `_constraint_rows` of the reduced
    rows one level up, whose joint kernel is N there; each space keeps its
    own in reduced echelon form (`_eliminate`), and their rank is the
    quotient dimension.
    """
    datum = module.datum
    rank = datum.rank
    simple_idx = [module.chev.index[datum.simple_root(i)] for i in range(rank)]
    constraints = {}    # beta -> reduced rows whose joint kernel is N^beta
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
                for row in _constraint_rows(module, ("e", ri, deg), beta,
                                            upper):
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
                for row in _constraint_rows(module, ("e", ri, deg), beta):
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
    the modules built here share one `_Block`, dropped on return, whose
    weight-space sizes are the Verma character."""
    key = (datum.key, lam, depth)
    if key not in _DECOMP_MEMO:
        datum.check_rank(lam[0])
        block = _Block(datum, lam.tail(), depth)
        character = FormalCharacter(base=lam[0], depth=depth, table={
            beta: len(space) for beta, space in block.window(depth).items()})

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
