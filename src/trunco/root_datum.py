"""Finite root data, weights, and reflection groups.

Conventions used throughout the package:

- ``cartan[i][j]`` is the pairing <alpha_j, alpha_i^vee>.
- Weights are stored in fundamental-weight coordinates: a weight lambda is
  the tuple (<lambda, alpha_i^vee>)_i of rational numbers.
- Roots are stored in root coordinates: integer tuples giving the expansion
  of the root in the simple roots.
- A Weyl group word ``(i1, ..., ik)`` denotes s_{i1} s_{i2} ... s_{ik} and is
  applied to a vector right-to-left.

Indices in words and root coordinates are 0-based internally; the CLI layer
translates from the 1-based labels used on the command line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg


_FAMILY_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
_FAMILY_MAX_RANK = {"E": 8, "F": 4, "G": 2}


def _simple_cartan_matrix(family, rank):
    """Cartan matrix of one irreducible factor, Bourbaki numbering."""
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def join(i, j, aij=-1, aji=-1):
        # aij = <alpha_j, alpha_i^vee>
        a[i][j] = aij
        a[j][i] = aji

    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            join(i, i + 1)
        if family == "B" and rank >= 2:
            # last simple root short
            join(rank - 2, rank - 1, -1, -2)
        if family == "C" and rank >= 2:
            # last simple root long
            join(rank - 2, rank - 1, -2, -1)
    elif family == "D":
        for i in range(rank - 2):
            join(i, i + 1)
        join(rank - 3, rank - 1)
    elif family == "E":
        # chain 0-2-3-4-(5-6-7), node 1 hangs off node 3
        chain = [0, 2, 3, 4, 5, 6, 7][:rank - 1]
        for i, j in zip(chain, chain[1:]):
            join(i, j)
        join(1, 3)
    elif family == "F":
        join(0, 1)
        join(1, 2, -1, -2)  # alpha_3, alpha_4 short
        join(2, 3)
    elif family == "G":
        join(0, 1, -3, -1)  # alpha_1 short
    else:
        raise ValueError("unknown family %r" % family)
    return a


@dataclass(frozen=True)
class CartanType:
    """A product of irreducible finite Cartan types, e.g. A2 or A1xA1."""

    factors: tuple

    @classmethod
    def parse(cls, text):
        factors = []
        for part in text.strip().split("x"):
            m = re.fullmatch(r"\s*([A-Ga-g])\s*([0-9]+)\s*", part)
            if m is None:
                raise ValueError("cannot parse Cartan type %r" % text)
            family, rank = m.group(1).upper(), int(m.group(2))
            lo = _FAMILY_MIN_RANK[family]
            hi = _FAMILY_MAX_RANK.get(family)
            if rank < lo or (hi is not None and rank > hi):
                raise ValueError("illegal rank %d for family %s" % (rank, family))
            factors.append((family, rank))
        if not factors:
            raise ValueError("empty Cartan type")
        return cls(tuple(factors))

    @property
    def rank(self):
        return sum(r for _, r in self.factors)

    def cartan_matrix(self):
        n = self.rank
        a = [[0] * n for _ in range(n)]
        off = 0
        for family, rank in self.factors:
            block = _simple_cartan_matrix(family, rank)
            for i in range(rank):
                for j in range(rank):
                    a[off + i][off + j] = block[i][j]
            off += rank
        return a

    def __str__(self):
        return "x".join("%s%d" % f for f in self.factors)


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates (rational entries)."""

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return Weight(tuple(s * a for a in self.coords))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def _root_closure(cartan):
    """All positive roots of a finite Cartan matrix, in root coordinates."""
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(rank):
                # root string through beta in the alpha_i direction
                p = 0
                down = beta
                while True:
                    down = tuple(c - int(k == i) for k, c in enumerate(down))
                    if down in roots:
                        p += 1
                    else:
                        break
                pair = sum(cartan[i][j] * beta[j] for j in range(rank))
                if p - pair > 0:
                    up = tuple(c + int(k == i) for k, c in enumerate(beta))
                    if up not in roots:
                        new.add(up)
        roots |= new
        frontier = new
        if len(roots) > 10000:
            raise ValueError("Cartan matrix is not of finite type")
    return sorted(roots, key=lambda r: (sum(r), r))


class RootDatum:
    """A finite root system with exact rational pairings."""

    _cache = {}

    def __init__(self, cartan):
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        self.rank = len(self.cartan)
        self.positive_roots = _root_closure(self.cartan)
        self.symmetrizer = self._solve_symmetrizer()
        self._coroots = self._coroot_table()
        ech, pivots = linalg.row_echelon(
            [row + self.simple_root(i) for i, row in enumerate(self.cartan)])
        if pivots != list(range(self.rank)):
            raise ValueError("Cartan matrix is singular")
        self._cartan_inverse = tuple(tuple(row[self.rank:]) for row in ech)
        self.rho = Weight((1,) * self.rank)
        self._sub_cache = {}
        self._weyl = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_type(cls, type_str):
        ct = CartanType.parse(type_str)
        key = str(ct)
        if key not in cls._cache:
            cls._cache[key] = cls(ct.cartan_matrix())
        return cls._cache[key]

    def _solve_symmetrizer(self):
        # positive integers d_i with d_i a_ij = d_j a_ji, propagated along the
        # Dynkin graph and then cleared of denominators
        d = [None] * self.rank
        for start in range(self.rank):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(self.rank):
                    if i != j and self.cartan[i][j] != 0 and d[j] is None:
                        d[j] = d[i] * Fraction(self.cartan[i][j], self.cartan[j][i])
                        stack.append(j)
        for i in range(self.rank):
            for j in range(self.rank):
                if d[i] * self.cartan[i][j] != d[j] * self.cartan[j][i]:
                    raise ValueError("Cartan matrix is not symmetrizable")
        scale = math.lcm(*(x.denominator for x in d))
        return tuple(int(x * scale) for x in d)

    def _coroot_table(self):
        # alpha^vee = sum_j (2 alpha_j d_j / (alpha, alpha)) alpha_j^vee
        table = {}
        for root in self.positive_roots:
            sq = self.norm_sq(root)
            twice = [2 * rj * dj for dj, rj in zip(self.symmetrizer, root)]
            if any(t % sq for t in twice):
                raise ValueError("coroot of %r is not integral" % (root,))
            coroot = tuple(t // sq for t in twice)
            table[root] = coroot
            table[tuple(-c for c in root)] = tuple(-c for c in coroot)
        return table

    @property
    def key(self):
        return self.cartan

    def sub_datum(self, indices):
        """Root datum of the standard Levi on the given simple indices."""
        idx = tuple(sorted(indices))
        if idx not in self._sub_cache:
            sub = [[self.cartan[i][j] for j in idx] for i in idx]
            self._sub_cache[idx] = RootDatum(sub)
        return self._sub_cache[idx]

    # -- roots and pairings -------------------------------------------

    def is_root(self, vec):
        return tuple(vec) in self._coroots

    def simple_root(self, i):
        return tuple(int(j == i) for j in range(self.rank))

    def root_weight(self, root):
        """A root expressed in fundamental-weight coordinates."""
        return Weight(tuple(
            sum(self.cartan[i][j] * root[j] for j in range(self.rank))
            for i in range(self.rank)))

    def norm_sq(self, root):
        d, a = self.symmetrizer, self.cartan
        return sum(d[i] * a[i][j] * root[i] * root[j]
                   for i in range(self.rank) for j in range(self.rank))

    def coroot_coords(self, root):
        """Expansion of root^vee in the simple coroots (integers)."""
        if root not in self._coroots:
            raise ValueError("%r is not a root" % (root,))
        return self._coroots[root]

    def pairing(self, weight, root):
        """<weight, root^vee> for a (possibly negative) root."""
        return sum(c * w for c, w in zip(self.coroot_coords(root), weight.coords))

    def reflect_weight(self, root, weight):
        return weight - self.pairing(weight, root) * self.root_weight(root)

    def reflect_root(self, root, other):
        pair = sum(c * sum(a * o for a, o in zip(row, other))
                   for c, row in zip(self.coroot_coords(root), self.cartan))
        return tuple(o - pair * r for o, r in zip(other, root))

    def root_coords(self, weight, indices=None):
        """Express a weight as a rational combination of simple roots.

        Only the simple roots listed in `indices` may be used (default all).
        Returns a full-length coefficient tuple, or None if the weight is not
        in their span.
        """
        if len(weight.coords) != self.rank:
            raise ValueError("weight %s has %d coordinates, expected %d"
                             % (weight, len(weight.coords), self.rank))
        coords = tuple(sum(b * w for b, w in zip(row, weight.coords))
                       for row in self._cartan_inverse)
        if indices is not None and any(
                coords[j] for j in range(self.rank) if j not in indices):
            return None
        return coords

    def dominance_leq(self, lower, upper, indices=None):
        """True when upper - lower is a Z>=0 combination of the given simples."""
        coords = self.root_coords(upper - lower, indices)
        return coords is not None and all(
            c.denominator == 1 and c >= 0 for c in coords)

    def weyl_group(self):
        if self._weyl is None:
            self._weyl = ReflectionGroup(self, [self.simple_root(i) for i in range(self.rank)],
                                         self.positive_roots)
        return self._weyl


def build_root_datum(type_str):
    """Root datum for a Cartan type string such as "A2", "B3" or "A1xA1"."""
    return RootDatum.from_type(type_str)


class WeylElement:
    """Group element carrying a canonical reduced word.

    Identity has word ().  Elements compare and hash by their action (image
    of the ambient rho), so elements of the same group are deduplicated.
    """

    __slots__ = ("group", "word", "key", "length")

    def __init__(self, group, word, key):
        self.group = group
        self.word = word
        self.key = key
        self.length = len(word)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join("s%d" % (i + 1) for i in self.word)

    def act(self, weight):
        return self.group.act_word(self.word, weight)

    def act_root(self, root):
        return self.group.act_word_root(self.word, root)

    def inverse(self):
        return self.group.from_word(tuple(reversed(self.word)))


class ReflectionGroup:
    """Finite reflection group generated by reflections in chosen roots.

    `simples` are roots of the ambient datum (root coordinates) forming a
    simple system for the subsystem; `positive_roots` are the subsystem's
    positive roots, again as ambient root-coordinate vectors.  The full Weyl
    group is the special case where these are the ambient simples and the
    whole of Phi^+.
    """

    def __init__(self, datum, simples, positive_roots):
        self.datum = datum
        self.simples = [tuple(s) for s in simples]
        self.positive_roots = [tuple(r) for r in positive_roots]
        self.num_gens = len(self.simples)
        self._elements = None
        self._by_key = None
        self._bruhat_memo = {}
        self._kl_memo = {}              # (x.key, y.key) -> P_{x,y} coefficients

    # -- words acting on ambient data ---------------------------------

    def act_word(self, word, weight):
        for i in reversed(word):
            weight = self.datum.reflect_weight(self.simples[i], weight)
        return weight

    def act_word_root(self, word, root):
        for i in reversed(word):
            root = self.datum.reflect_root(self.simples[i], root)
        return root

    def _key_of_word(self, word):
        return self.act_word(word, self.datum.rho).coords

    # -- enumeration ---------------------------------------------------

    def _materialize(self):
        if self._elements is not None:
            return
        identity = WeylElement(self, (), self.datum.rho.coords)
        by_key = {identity.key: identity}
        order = [identity]
        frontier = [identity]
        while frontier:
            new = []
            for elem in frontier:
                for i in range(self.num_gens):
                    key = self.datum.reflect_weight(
                        self.simples[i], Weight(elem.key)).coords
                    if key not in by_key:
                        cand = WeylElement(self, (i,) + elem.word, key)
                        by_key[key] = cand
                        new.append(cand)
            new.sort(key=lambda w: w.word)
            order.extend(new)
            frontier = new
            if len(by_key) > 400000:
                raise ValueError("reflection group too large to materialize")
        self._elements = order
        self._by_key = by_key

    def elements(self):
        """All elements, sorted by (length, word)."""
        self._materialize()
        return list(self._elements)

    def order(self):
        self._materialize()
        return len(self._elements)

    def identity(self):
        self._materialize()
        return self._by_key[self.datum.rho.coords]

    def from_word(self, word):
        self._materialize()
        return self._by_key[self._key_of_word(tuple(word))]

    def generator(self, i):
        return self.from_word((i,))

    def mult(self, x, y):
        self._materialize()
        return self._by_key[self.act_word(x.word, Weight(y.key)).coords]

    def longest_element(self):
        return max(self.elements(), key=lambda w: w.length)

    # -- descent and Bruhat order -------------------------------------

    def left_descent(self, w):
        """Some i with length(s_i w) < length(w), or None for the identity."""
        return w.word[0] if w.word else None

    def has_left_descent(self, w, i):
        # length(s_i w) < length(w)  iff  w^{-1}(alpha_i) < 0
        root = self.simples[i]
        for j in w.word:  # apply w^{-1} left-to-right
            root = self.datum.reflect_root(self.simples[j], root)
        return all(c <= 0 for c in root)

    def bruhat_leq(self, x, y):
        """Bruhat order via the lifting property on canonical reduced words."""
        if x.length > y.length:
            return False
        if x.length == 0:
            return True
        memo_key = (x.key, y.key)
        if memo_key in self._bruhat_memo:
            return self._bruhat_memo[memo_key]
        s = self.left_descent(y)
        sy = self.mult(self.generator(s), y)
        if self.has_left_descent(x, s):
            result = self.bruhat_leq(self.mult(self.generator(s), x), sy)
        else:
            result = self.bruhat_leq(x, sy)
        self._bruhat_memo[memo_key] = result
        return result
