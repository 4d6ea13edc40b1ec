"""The semisimple Lie algebra of a root datum in a Chevalley basis.

Structure constants follow the extraspecial-pair sign convention and are
checked against the Jacobi identity when the basis is built.  The module
oracle (`oracle.py`) is its one user.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


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
