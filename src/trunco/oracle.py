"""Brute-force module construction, independent of the KL machinery.

Builds the semisimple Lie algebra from its root datum in a Chevalley basis
(extraspecial-pair sign convention, validated against the Jacobi identity),
then realizes truncated Verma modules by the exact action of its
degree-shifted generators on PBW monomials.  Simple characters are extracted
as quotients by the maximal proper submodule, which is computed weight space
by weight space: a vector lies in it iff every degree-shifted raising
generator maps it into the part already found.  Those conditions are the
sparse rows of `TruncatedModule.generator_matrix`, scaled to integers and
eliminated by integer combination; nothing is rounded and no floating point
is used.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from .characters import (FormalCharacter, cone, decompose_in_block, height,
                         verma_character)
from .trunc_weights import TruncatedWeight, same_block

MAX_TOTAL_DIMENSION = 200000


def _integer(value):
    if value.denominator != 1:
        raise RuntimeError("structure constant %s is not an integer" % value)
    return int(value)


class ChevalleyBasis:
    """Structure constants of g in the basis {h_i, e_gamma, f_gamma}.

    [e_a, e_b] = N(a,b) e_{a+b} with N(a,b) = +(p+1) on extraspecial pairs,
    the rest forced by the standard length-weighted cocycle identities.
    """

    _cache = {}

    def __init__(self, datum):
        self.datum = datum
        self.roots = datum.positive_roots
        self.index = {r: i for i, r in enumerate(self.roots)}
        self._npos = {}
        self.shifted = {}       # degree-shifted brackets, see TruncatedModule
        self._build_constants()
        self._check_jacobi()

    @classmethod
    def get(cls, datum):
        if datum.key not in cls._cache:
            cls._cache[datum.key] = cls(datum)
        return cls._cache[datum.key]

    # -- structure constants ------------------------------------------

    def _chain_down(self, a, b):
        """max k >= 0 with b - k a a root."""
        p = 0
        current = b
        while True:
            current = tuple(x - y for x, y in zip(current, a))
            if self.datum.is_root(current):
                p += 1
            else:
                return p

    def _build_constants(self):
        sq = self.datum.norm_sq
        for gamma in self.roots:
            pairs = []
            for a in self.roots:
                b = tuple(g - x for g, x in zip(gamma, a))
                if b in self.index and self.index[a] < self.index[b]:
                    pairs.append((a, b))
            if not pairs:
                continue
            pairs.sort(key=lambda ab: self.index[ab[0]])
            ea, eb = pairs[0]
            self._npos[(ea, eb)] = self._chain_down(ea, eb) + 1
            for x, y in pairs[1:]:
                # Jacobi on the quadruple (ea, eb, -x, -y), solved for N(x,y)
                t = Fraction(0)
                bx = tuple(p - q for p, q in zip(eb, x))
                if self.datum.is_root(bx):
                    t += Fraction(self._n(eb, tuple(-c for c in x)) *
                                  self._n(ea, tuple(-c for c in y)), 1) / sq(bx)
                ax = tuple(p - q for p, q in zip(ea, x))
                if self.datum.is_root(ax):
                    t -= Fraction(self._n(ea, tuple(-c for c in x)) *
                                  self._n(eb, tuple(-c for c in y)), 1) / sq(ax)
                value = _integer(sq(gamma) * t / self._npos[(ea, eb)])
                if abs(value) != self._chain_down(x, y) + 1:
                    raise RuntimeError("|N(%r, %r)| is not p + 1" % (x, y))
                self._npos[(x, y)] = value

    def _n(self, a, b):
        """N(a,b) for signed roots a, b with a + b a root."""
        pos_a = a in self.index
        pos_b = b in self.index
        if pos_a and pos_b:
            if (a, b) in self._npos:
                return self._npos[(a, b)]
            return -self._npos[(b, a)]
        if not pos_a and not pos_b:
            return -self._n(tuple(-c for c in a), tuple(-c for c in b))
        if not pos_a:
            return -self._n(b, a)
        # a positive, b negative
        sq = self.datum.norm_sq
        s = tuple(p + q for p, q in zip(a, b))
        if s in self.index:
            # (-b) + s = a, a positive pair
            value = -Fraction(self._n(tuple(-c for c in b), s)) * sq(s) / sq(a)
        else:
            # (-s) + a = -b, a positive pair
            value = Fraction(self._n(tuple(-c for c in s), a)) * sq(s) / sq(tuple(-c for c in b))
        return _integer(value)

    # -- brackets ------------------------------------------------------

    def bracket(self, x, y):
        """Bracket of basis elements ("h", i) / ("e", root) / ("f", root).

        Returns a list of (integer coefficient, element) pairs.
        """
        kx, ky = x[0], y[0]
        if kx == "h" and ky == "h":
            return []
        if kx == "h":
            sign = 1 if ky == "e" else -1
            root = y[1]
            pair = sum(self.datum.cartan[x[1]][j] * root[j]
                       for j in range(self.datum.rank))
            return [(sign * pair, y)] if pair else []
        if ky == "h":
            return [(-c, el) for c, el in self.bracket(y, x)]
        a = x[1] if kx == "e" else tuple(-c for c in x[1])
        b = y[1] if ky == "e" else tuple(-c for c in y[1])
        s = tuple(p + q for p, q in zip(a, b))
        if all(c == 0 for c in s):
            # [e_a, f_a] = h_{a^vee}
            out = []
            for i, c in enumerate(self.datum.coroot_coords(x[1])):
                if c:
                    out.append((c if kx == "e" else -c, ("h", i)))
            return out
        if not self.datum.is_root(s):
            return []
        coeff = self._n(a, b)
        if s in self.index:
            return [(coeff, ("e", s))]
        return [(coeff, ("f", tuple(-c for c in s)))]

    # -- validation ----------------------------------------------------

    def basis_elements(self):
        out = [("h", i) for i in range(self.datum.rank)]
        out += [("e", r) for r in self.roots]
        out += [("f", r) for r in self.roots]
        return out

    def _bracket_combo(self, x, combo):
        out = {}
        for c, el in combo:
            for c2, el2 in self.bracket(x, el):
                out[el2] = out.get(el2, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    def _check_jacobi(self):
        basis = self.basis_elements()
        if len(basis) <= 30:
            triples = itertools.combinations(basis, 3)
        else:
            rng = random.Random(0)
            triples = (tuple(rng.sample(basis, 3)) for _ in range(2000))
        for x, y, z in triples:
            lhs = self._bracket_combo(x, self.bracket(y, z))
            rhs = self._bracket_combo(y, self.bracket(x, z))
            for c, el in self.bracket(x, y):
                for c2, el2 in self.bracket(el, z):
                    rhs[el2] = rhs.get(el2, 0) + c * c2
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                raise RuntimeError("Jacobi identity fails at %r %r %r" % (x, y, z))


class TruncatedModule:
    """Verma module over g tensor C[t]/(t^(n+1)), cut off at a finite depth.

    Basis vectors are PBW monomials in the degree-shifted lowering
    operators, sorted by (root position, degree).  A monomial is a tuple of
    (root index, degree) pairs; the highest weight vector is ().
    """

    def __init__(self, datum, lam, depth):
        datum.check_rank(lam[0])
        self.datum = datum
        self.lam = lam
        self.n = lam.level
        self.depth = depth
        self.chev = ChevalleyBasis.get(datum)
        self.spaces = {beta: [] for beta in cone(datum.rank, depth)}
        self.position = {}      # monomial -> index in its space
        self._act_cache = {}
        # generators in position order, of nondecreasing height
        gens = [((ri, d), root, height(root))
                for ri, root in enumerate(self.chev.roots)
                for d in range(self.n + 1)]

        def rec(mono, beta, ht, start):
            # depth first over nondecreasing positions, so that each space
            # fills in lexicographic order
            space = self.spaces[beta]
            self.position[mono] = len(space)
            space.append(mono)
            if len(self.position) > MAX_TOTAL_DIMENSION:
                raise ValueError("truncated Verma module exceeds size budget")
            for pos in range(start, len(gens)):
                gen, root, h = gens[pos]
                if ht + h > depth:
                    break
                rec(mono + (gen,), tuple(b + r for b, r in zip(beta, root)),
                    ht + h, pos)

        rec((), (0,) * datum.rank, 0, 0)
        del rec     # break the cycle rec -> cell -> rec, which holds self

    # -- the action ----------------------------------------------------

    def _bracket_trunc(self, gen1, gen2):
        """Bracket of two degree-shifted generators, dropping t^(>n); the
        basis keeps one list per generator pair."""
        deg = gen1[2] + gen2[2]
        if deg > self.n:
            return []
        chev, key = self.chev, (gen1, gen2)
        if key not in chev.shifted:
            x, y = ((k, i if k == "h" else chev.roots[i]) for k, i, _ in key)
            chev.shifted[key] = [(c, (k, r if k == "h" else chev.index[r], deg))
                                 for c, (k, r) in chev.bracket(x, y)]
        return chev.shifted[key]

    def act_gen(self, gen, mono):
        """Action of a generator (kind, index, degree) on a basis monomial.

        Returns {monomial: coefficient} in PBW normal form.  Coefficients
        are ints; only a non-integral entry of lambda makes them Fractions.
        """
        key = (gen, mono)
        cached = self._act_cache.get(key)
        if cached is not None:
            return cached
        kind = gen[0]
        if not mono:
            if kind == "e":
                out = {}
            elif kind == "h":
                c = self.lam[gen[2]].coords[gen[1]]
                out = {(): c} if c else {}
            else:
                out = {((gen[1], gen[2]),): 1}
        elif kind == "f" and (gen[1], gen[2]) <= mono[0]:
            out = {((gen[1], gen[2]),) + mono: 1}
        else:
            head, rest = mono[0], mono[1:]
            fhead = ("f", head[0], head[1])
            out = {}
            for m, c in self.act_gen(gen, rest).items():
                for m2, c2 in self.act_gen(fhead, m).items():
                    out[m2] = out.get(m2, 0) + c * c2
            for cb, el in self._bracket_trunc(gen, fhead):
                for m, c in self.act_gen(el, rest).items():
                    out[m] = out.get(m, 0) + cb * c
            out = {m: c for m, c in out.items() if c}
        self._act_cache[key] = out
        return out

    def generator_matrix(self, gen, beta):
        """Sparse rows {target position: {source position: coefficient}} of
        the generator on the weight space at beta, and the target beta.  A
        lowering image that leaves the depth window is dropped; any other
        image that leaves it raises RuntimeError."""
        beta = tuple(beta)
        kind = gen[0]
        if kind == "h":
            target_beta = beta
        else:
            root = self.chev.roots[gen[1]]
            sign = -1 if kind == "e" else 1
            target_beta = tuple(b + sign * r for b, r in zip(beta, root))
        rows = {}
        for col, mono in enumerate(self.spaces[beta]):
            for m, c in self.act_gen(gen, mono).items():
                row = self.position.get(m)
                if row is None:
                    if kind != "f":
                        raise RuntimeError("action left the depth window")
                    continue
                rows.setdefault(row, {})[col] = c
        return rows, target_beta

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
    common factor (the lcm of its denominators) to integers."""
    rows, _ = module.generator_matrix(gen, beta)
    scale = lcm(*(c.denominator for row in rows.values() for c in row.values()))
    return {r: {col: c.numerator * (scale // c.denominator)
                for col, c in row.items()}
            for r, row in rows.items()}


def _eliminate(basis, row):
    """Add an integer row {col: value} to the span of basis {pivot: row}.

    Basis rows are divided by the gcd of their entries, and each one's
    least column is its pivot. The row is combined with basis rows, in
    integers, until it is zero or its least column is a new pivot.
    """
    row = {c: v for c, v in row.items() if v}
    while row:
        g = gcd(*row.values())
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        pivot = min(row)
        other = basis.get(pivot)
        if other is None:
            basis[pivot] = row
            return
        g = gcd(other[pivot], row[pivot])
        a, b = other[pivot] // g, row[pivot] // g
        for c in row:
            row[c] *= a
        for c, v in other.items():
            row[c] = row.get(c, 0) - b * v
        row = {c: v for c, v in row.items() if v}


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


def _simple_char(datum, lam, depth):
    """simple_character at `depth`, cut from the deepest one built for lam.

    The entry at beta depends only on the weight spaces of smaller height,
    so a deeper character holds every shallower one.
    """
    key = (datum.key, lam)
    ch = _SIMPLE_CHAR_MEMO.get(key)
    if ch is None or ch.depth < depth:
        ch = _SIMPLE_CHAR_MEMO[key] = simple_character(
            TruncatedModule(datum, lam, depth))
    if ch.depth == depth:
        return ch
    return FormalCharacter(base=ch.base, depth=depth, table={
        b: d for b, d in ch.table.items() if height(b) <= depth})


def verma_decomposition(datum, lam, depth):
    """Multiplicities {offset beta: [M_lam : L_{lam_0 - beta}]} by greedy
    comparison of the Verma character with brute-force simple characters."""
    key = (datum.key, lam, depth)
    if key not in _DECOMP_MEMO:
        character = verma_character(datum, lam, depth)

        def provider(beta):
            eta0 = lam[0] - datum.root_weight(beta)
            eta = TruncatedWeight((eta0,) + lam.tail())
            return _simple_char(datum, eta, depth - height(beta))

        _DECOMP_MEMO[key] = decompose_in_block(datum, character, provider)
    return _DECOMP_MEMO[key]


def oracle_multiplicity(datum, lam, nu, depth=None):
    """[M_lam : L_nu] from explicit module construction.

    `depth` defaults to the height of lambda_0 - nu_0 (the minimum needed);
    a larger value decomposes more of the Verma in one pass.
    """
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
