"""Finite root data, weights, and reflection groups.

Conventions used throughout the package:

- ``cartan[i][j]`` is the pairing <alpha_j, alpha_i^vee>.
- Weights are stored in fundamental-weight coordinates: a weight lambda is
  the tuple (<lambda, alpha_i^vee>)_i of rational numbers.  An integral
  coordinate is an ``int`` and only a non-integral one a ``Fraction``, so
  integral blocks run on integer arithmetic; floats are refused.
- Roots are stored in root coordinates: integer tuples giving the expansion
  of the root in the simple roots.
- A Weyl group word ``(i1, ..., ik)`` denotes s_{i1} s_{i2} ... s_{ik} and is
  applied to a vector right-to-left.

Indices in words and root coordinates are 0-based internally; the CLI layer
translates from the 1-based labels used on the command line.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .characters import PartitionCache


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


def _exact(value):
    """An exact rational as an int when integral, else a Fraction.

    Accepts ints, Fractions and strings such as "1/2"; a float is refused,
    since its binary value is rarely the number that was meant.
    """
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise ValueError("inexact coordinate %r: use an int, a Fraction "
                             "or a string such as \"1/2\"" % (value,))
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _ratio(num, den):
    """num / den exactly, for a positive int den: an int when den divides
    num, else a Fraction."""
    if type(num) is int and not num % den:
        return num // den
    return _exact(Fraction(num, den))


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates (exact rational entries)."""

    coords: tuple

    def __init__(self, coords):
        # a Fraction that is not integral is kept as it is
        object.__setattr__(self, "coords", tuple(
            c if type(c) is int or type(c) is Fraction and c.denominator != 1
            else _exact(c) for c in coords))

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, scalar):
        s = _exact(scalar)
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
    """A finite root system with exact rational pairings.

    `build_root_datum` and `sub_datum` return the one interned datum of a
    Cartan matrix, which owns the tables the matrix determines: reflection
    groups (one per ordered simple system), Kostant partitions, and the
    per-block work of the engine and the KL layer (twisting words, block
    plans, block descriptors).  A datum built by `RootDatum(cartan)` is not
    interned and shares none of these.
    """

    _interned = {}

    def __init__(self, cartan):
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        self.rank = len(self.cartan)
        self.positive_roots = _root_closure(self.cartan)
        self.symmetrizer = self._solve_symmetrizer()
        self._coroots, self._root_weights = self._root_tables()
        ech, pivots = linalg.row_echelon(
            [row + self.simple_root(i) for i, row in enumerate(self.cartan)])
        if pivots != list(range(self.rank)):
            raise ValueError("Cartan matrix is singular")
        # C^-1 = _cartan_inverse / _inverse_den, with an integer matrix
        inverse = [row[self.rank:] for row in ech]
        den = math.lcm(*(x.denominator for row in inverse for x in row))
        self._cartan_inverse = tuple(tuple(int(x * den) for x in row)
                                     for row in inverse)
        self._inverse_den = den
        self.rho = Weight((1,) * self.rank)
        self._groups = {}
        # filled by the engine and the KL layer: twisting words by top
        # component, block plans by tail, block descriptors by lambda_0
        self._twists = {}
        self._plans = {}
        self._descriptors = {}

    # -- construction -------------------------------------------------

    @classmethod
    def interned(cls, cartan):
        """The one shared datum of this Cartan matrix."""
        key = tuple(tuple(int(x) for x in row) for row in cartan)
        datum = cls._interned.get(key)
        if datum is None:
            datum = cls._interned[key] = cls(key)
        return datum

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

    def _root_tables(self):
        # alpha^vee = sum_j (2 alpha_j d_j / (alpha, alpha)) alpha_j^vee; the
        # second table holds each root in fundamental-weight coordinates
        table, weights = {}, {}
        for root in self.positive_roots:
            sq = self.norm_sq(root)
            twice = [2 * rj * dj for dj, rj in zip(self.symmetrizer, root)]
            if any(t % sq for t in twice):
                raise ValueError("coroot of %r is not integral" % (root,))
            coroot = tuple(t // sq for t in twice)
            table[root] = coroot
            table[tuple(-c for c in root)] = tuple(-c for c in coroot)
            weight = tuple(sum(a * r for a, r in zip(row, root)) for row in self.cartan)
            weights[root] = weight
            weights[tuple(-c for c in root)] = tuple(-c for c in weight)
        return table, weights

    @property
    def key(self):
        return self.cartan

    def sub_datum(self, indices):
        """Interned datum of the standard Levi on the given simples."""
        idx = sorted(indices)
        return RootDatum.interned(tuple(tuple(self.cartan[i][j] for j in idx)
                                        for i in idx))

    @functools.cached_property
    def partitions(self):
        """Kostant partition function of the positive roots."""
        return PartitionCache(self.positive_roots)

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
        pair = self.pairing(weight, root)
        return Weight(tuple(w - pair * r for w, r in
                            zip(weight.coords, self._root_weights[root])))

    def reflect_root(self, root, other):
        pair = sum(c * sum(a * o for a, o in zip(row, other))
                   for c, row in zip(self.coroot_coords(root), self.cartan))
        return tuple(o - pair * r for o, r in zip(other, root))

    def check_rank(self, *weights):
        """Raise ValueError unless every weight has `rank` coordinates."""
        for weight in weights:
            if len(weight.coords) != self.rank:
                raise ValueError("weight %s has %d coordinates, expected %d"
                                 % (weight, len(weight.coords), self.rank))

    def root_coords(self, weight, indices=None):
        """Express a weight as a rational combination of simple roots.

        Only the simple roots listed in `indices` may be used (default all).
        Returns a full-length coefficient tuple (ints where integral), or
        None if the weight is not in their span.
        """
        self.check_rank(weight)
        coords = tuple(_ratio(sum(b * w for b, w in zip(row, weight.coords)),
                              self._inverse_den)
                       for row in self._cartan_inverse)
        if indices is not None and any(
                coords[j] for j in range(self.rank) if j not in indices):
            return None
        return coords

    def dominance_offset(self, lower, upper, indices=None):
        """upper - lower as an int tuple of Z>=0 coefficients of the given
        simples (default all), or None when it is no such combination."""
        coords = self.root_coords(upper - lower, indices)
        if coords is None or any(c.denominator != 1 or c < 0 for c in coords):
            return None
        return coords

    def reflection_group(self, simples):
        """The group generated by reflections in `simples`, numbered in
        their order; one per ordered simple system."""
        key = tuple(tuple(s) for s in simples)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = ReflectionGroup(self, key)
        return group

    @functools.cached_property
    def _weyl_group(self):
        return self.reflection_group(self.simple_root(i) for i in range(self.rank))

    def weyl_group(self):
        return self._weyl_group


def build_root_datum(type_str):
    """Interned root datum for a Cartan type string such as "A2", "B3" or
    "A1xA1"."""
    return RootDatum.interned(CartanType.parse(type_str).cartan_matrix())


class WeylElement:
    """Listed group element carrying its index and canonical reduced word.

    Identity has index 0 and word ().  A listed group makes one element per
    index and hands out only those, so elements compare and hash by identity.
    """

    __slots__ = ("group", "index", "word", "length")

    def __init__(self, group, index, word):
        self.group = group
        self.index = index
        self.word = word
        self.length = len(word)

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join("s%d" % (i + 1) for i in self.word)

    def act(self, weight):
        return self.group.act_word(self.word, weight)


class _Images(dict):
    """Row i of `ReflectionGroup.lmul` before the group is listed: id w ->
    id of s_i w, filled on first lookup."""

    __slots__ = ("group", "gen")

    def __init__(self, group, gen):
        self.group, self.gen = group, gen

    def __missing__(self, w):
        return self.group._fill(self.gen, w)


class ReflectionGroup:
    """Finite reflection group generated by reflections in chosen roots.

    `simples` are roots of the ambient datum (root coordinates) forming a
    simple system for the subsystem.  The full Weyl group is the special
    case where these are the ambient simples.

    The group works in its own coordinates: a weight v is the tuple of its
    pairings <v, beta_j^vee> with the simple coroots; for the Weyl group of
    the datum these are the fundamental-weight coordinates.  There rho_J,
    half the sum of the group's positive roots, is (1, ..., 1), and it is
    regular, so an element w is named by the integer vector w(rho_J):

    - s_i is a left descent of w exactly when entry i of w(rho_J) is
      negative, and then s_i w is one shorter than w, else one longer;
    - w w0 is named by -w(rho_J) and has length l(w0) - l(w).

    Elements are interned on first sight as small ids: `_vecs[w]` is the
    vector of id w, `length[w]` its length, and `lmul[i][w]` the id of
    s_i w, reflected on first lookup.  Listing the group (`elements`,
    `from_word`, `longest_element`, `order`) numbers every element in
    (length, word) order, so that id n is the listed element n, fills
    `lmul` as complete lists, and drops what an earlier partial interning
    kept by id (Bruhat intervals, KL columns).
    """

    def __init__(self, datum, simples):
        self.datum = datum
        self.simples = [tuple(s) for s in simples]
        self.num_gens = len(self.simples)
        # s_i v = v - v[i] mirrors[i]; mirrors[i][j] = <beta_i, beta_j^vee>
        coroots = [datum.coroot_coords(r) for r in self.simples]
        self._mirrors = [tuple(sum(c * w for c, w in
                                   zip(coroot, datum._root_weights[r]))
                               for coroot in coroots)
                         for r in self.simples]
        self._reflect = self.reflector()
        self._elements = None
        rho = (1,) * self.num_gens
        self._install([rho], {rho: 0}, [0],
                      [_Images(self, i) for i in range(self.num_gens)])

    def _install(self, vecs, ids, length, lmul):
        self._vecs, self._ids, self.length, self.lmul = vecs, ids, length, lmul
        self._intervals = {0: 1}        # id y -> bitset of [e, y] over ids
        self._kl_columns = {}           # id y -> {x id: P_{x,y}}, see kl.py

    # -- words acting on ambient data ---------------------------------

    def act_word(self, word, weight):
        for i in reversed(word):
            weight = self.datum.reflect_weight(self.simples[i], weight)
        return weight

    def act_word_root(self, word, root):
        for i in reversed(word):
            root = self.datum.reflect_root(self.simples[i], root)
        return root

    def reflector(self):
        """reflect(i, vec): generator i acting on a weight in the group's
        own coordinates."""
        mirrors = self._mirrors

        def reflect(i, vec):
            pair = vec[i]
            return tuple(v - pair * m for v, m in zip(vec, mirrors[i]))

        return reflect

    # -- elements by id -------------------------------------------------

    def _intern(self, vec, length):
        """The id of the element named by vec, which has the given length."""
        w = self._ids.get(vec)
        if w is None:
            w = self._ids[vec] = len(self._vecs)
            self._vecs.append(vec)
            self.length.append(length)
        return w

    def _fill(self, i, w):
        vec = self._vecs[w]
        image = self._reflect(i, vec)
        u = self._intern(image, self.length[w] + (1 if vec[i] > 0 else -1))
        row = self.lmul[i]
        row[w] = u
        row[u] = w
        return u

    def _descent(self, w):
        """The least i with s_i w < w; w is not the identity."""
        return next(i for i, c in enumerate(self._vecs[w]) if c < 0)

    def _apply(self, word, w):
        """The id of s_(i1) ... s_(ik) w, for the word (i1, ..., ik)."""
        lmul = self.lmul
        for i in reversed(word):
            w = lmul[i][w]
        return w

    @functools.cached_property
    def longest_length(self):
        """l(w0), the number of walls crossed from rho_J to -rho_J."""
        vec, steps = (1,) * self.num_gens, 0
        while True:
            i = next((i for i, c in enumerate(vec) if c > 0), None)
            if i is None:
                return steps
            vec, steps = self._reflect(i, vec), steps + 1

    # -- listing -------------------------------------------------------

    def _materialize(self):
        if self._elements is not None:
            return
        # breadth first from the identity, each element keyed by its vector;
        # a new element takes the word (i,) + word(u) of the first u in the
        # previous layer with s_i u equal to it.  Each vector is reflected
        # once per generator; its images lie in the layers before and after
        # it, so they fill its lmul column once the next layer is numbered.
        reflect = self._reflect
        gens = range(self.num_gens)
        rho = (1,) * self.num_gens
        words = {rho: ()}
        index = {rho: 0}
        order = [rho]
        lmul = [[] for _ in gens]
        frontier = [rho]
        while frontier:
            new, rows = [], []
            for vec in frontier:
                row = [reflect(i, vec) for i in gens]
                rows.append(row)
                for i, image in enumerate(row):
                    if image not in words:
                        words[image] = (i,) + words[vec]
                        new.append(image)
            new.sort(key=words.__getitem__)
            for vec in new:
                index[vec] = len(order)
                order.append(vec)
            for row in rows:
                for i, image in enumerate(row):
                    lmul[i].append(index[image])
            frontier = new
            if len(words) > 400000:
                raise ValueError("reflection group too large to materialize")
        self._elements = [WeylElement(self, n, words[vec])
                          for n, vec in enumerate(order)]
        self._install(order, index, [w.length for w in self._elements], lmul)
        # w0 is the last element; this spares `longest_length` its walk
        self.longest_length = self._elements[-1].length

    def elements(self):
        """All elements, sorted by (length, word); element n has index n."""
        self._materialize()
        return list(self._elements)

    def order(self):
        self._materialize()
        return len(self._elements)

    def from_word(self, word):
        self._materialize()
        return self._elements[self._apply(word, 0)]

    def mult(self, x, y):
        return self._elements[self._apply(x.word, y.index)]

    def longest_element(self):
        self._materialize()
        return self._elements[-1]  # the only element of the last length

    # -- Bruhat order -------------------------------------------------

    def bruhat_leq(self, x, y):
        """Bruhat order: x lies in the interval [e, y]."""
        return bool(self._interval(y.index) >> x.index & 1)

    def _interval(self, y):
        # [e, y] = [e, sy] | s[e, sy] for a left descent s of y, as a bitset
        # over ids
        bits = self._intervals.get(y)
        if bits is None:
            s = self.lmul[self._descent(y)]
            bits = lower = self._interval(s[y])
            while lower:
                low = lower & -lower
                bits |= 1 << s[low.bit_length() - 1]
                lower ^= low
            self._intervals[y] = bits
        return bits
