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

import collections
import functools
import math
import operator
import re
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


class Frozen:
    """Base of the immutable value classes.  A subclass sets its fields
    once, in __init__, through object.__setattr__; any later assignment or
    deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a %s"
                             % (name, type(self).__name__))


class CartanType(Frozen):
    """A product of irreducible finite Cartan types, e.g. A2 or A1xA1."""

    def __init__(self, factors):
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self):
        return hash((self.factors,))

    def __repr__(self):
        return "CartanType(factors=%r)" % (self.factors,)

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


class Weight(Frozen):
    """A weight in fundamental-weight coordinates (exact rational entries)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        # a Fraction that is not integral is kept as it is
        object.__setattr__(self, "coords", tuple(
            c if type(c) is int or type(c) is Fraction and c.denominator != 1
            else _exact(c) for c in coords))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return "Weight(coords=%r)" % (self.coords,)

    def __add__(self, other):
        if len(self.coords) != len(other.coords):
            raise ValueError("weights %s and %s have unequal lengths"
                             % (self, other))
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if len(self.coords) != len(other.coords):
            raise ValueError("weights %s and %s have unequal lengths"
                             % (self, other))
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
    """All positive roots of a finite Cartan matrix, in root coordinates.

    A positive root beta that is not simple pairs positively with some
    alpha_i^vee, and s_i beta is then a lower positive root; so every
    positive root is reached from the simple ones by raising reflections,
    those s_i with <beta, alpha_i^vee> < 0.
    """
    rank = len(cartan)
    roots = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i, row in enumerate(cartan):
            pair = sum(a * b for a, b in zip(row, beta))
            if pair < 0:
                up = beta[:i] + (beta[i] - pair,) + beta[i + 1:]
                if up not in roots:
                    roots.add(up)
                    frontier.append(up)
        if len(roots) > 10000:
            raise ValueError("Cartan matrix is not of finite type")
    return sorted(roots, key=lambda r: (sum(r), r))


class RootDatum:
    """A finite root system with exact rational pairings.

    `build_root_datum` and `sub_datum` return the one interned datum of a
    Cartan matrix, which owns the tables the matrix determines: reflection
    groups (one per Cartan matrix: its own, and those of the integral
    subsystems of its blocks), Kostant partitions, and the engine's and the
    KL layer's work and values (block plans by tail, each holding its
    block's values, level-zero values, block descriptors, and one integral
    subsystem per class of lambda_0 modulo integral weights).  A datum
    built by `RootDatum(cartan)` is not interned and shares none of these.
    """

    _interned = {}

    def __init__(self, cartan):
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        self.rank = len(self.cartan)
        self.positive_roots = _root_closure(self.cartan)
        self.symmetrizer = self._solve_symmetrizer()
        self._coroots = self._root_tables()
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
        self._groups, self._partitions = {}, {}
        # filled by the engine and the KL layer: block plans by tail,
        # level-zero values by (lambda_0, beta), block descriptors by
        # lambda_0, integral subsystems by the fractional parts of lambda_0
        self._plans, self._leaf_values, self._descriptors = {}, {}, {}
        self._subsystems = {}

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
        """Interned datum of the standard Levi on the given simples."""
        idx = sorted(indices)
        if len(set(idx)) < len(idx) or not set(idx) <= set(range(self.rank)):
            raise ValueError("Levi indices %r are not distinct simples 0..%d"
                             % (tuple(idx), self.rank - 1))
        return RootDatum.interned(tuple(tuple(self.cartan[i][j] for j in idx)
                                        for i in idx))

    @property
    def partitions(self):
        """Kostant partition function of the positive roots."""
        return self.fold_partitions(1)

    def fold_partitions(self, k):
        """The k-fold convolution of `partitions`: Phi^+ taken k times."""
        if k not in self._partitions:
            self._partitions[k] = PartitionCache(self.positive_roots * k)
        return self._partitions[k]

    # -- roots and pairings -------------------------------------------

    def is_root(self, vec):
        return tuple(vec) in self._coroots

    def simple_root(self, i):
        return tuple(int(j == i) for j in range(self.rank))

    def root_weight(self, root):
        """A root expressed in fundamental-weight coordinates."""
        if len(root) != self.rank:
            raise ValueError("root %r has %d coordinates, expected %d"
                             % (tuple(root), len(root), self.rank))
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
        self.check_rank(weight)
        return sum(c * w for c, w in zip(self.coroot_coords(root), weight.coords))

    def check_rank(self, *weights):
        """Raise ValueError unless every weight has `rank` coordinates."""
        for weight in weights:
            if len(weight.coords) != self.rank:
                raise ValueError("weight %s has %d coordinates, expected %d"
                                 % (weight, len(weight.coords), self.rank))

    def root_coords(self, weight):
        """Express a weight as a rational combination of the simple roots:
        a coefficient tuple, ints where integral."""
        self.check_rank(weight)
        return tuple(_ratio(sum(b * w for b, w in zip(row, weight.coords)),
                            self._inverse_den)
                     for row in self._cartan_inverse)

    def dominance_offset(self, lower, upper):
        """upper - lower as an int tuple of Z>=0 coefficients of the simple
        roots, or None when it is no such combination.  Roots have integer
        weight coordinates, so a non-integer difference is none; an integer
        one is decided by an integer divmod per row of the inverse."""
        self.check_rank(lower, upper)
        diff = list(map(operator.sub, upper.coords, lower.coords))
        if any(c.denominator != 1 for c in diff):
            return None
        diff = [c.numerator for c in diff]
        offset = []
        for row in self._cartan_inverse:
            coeff, rest = divmod(sum(map(operator.mul, row, diff)),
                                 self._inverse_den)
            if rest or coeff < 0:
                return None
            offset.append(coeff)
        return tuple(offset)

    def reflection_group(self, cartan):
        """The Weyl group of a Cartan matrix, one per matrix."""
        key = tuple(tuple(row) for row in cartan)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = ReflectionGroup(key)
        return group

    @functools.cached_property
    def _weyl_group(self):
        return self.reflection_group(self.cartan)

    def weyl_group(self):
        return self._weyl_group


def build_root_datum(type_str):
    """Interned root datum for a Cartan type string such as "A2", "B3" or
    "A1xA1"."""
    return RootDatum.interned(CartanType.parse(type_str).cartan_matrix())


class WeylElement:
    """Listed group element carrying its id and canonical reduced word.

    `index` is the element's id in `ReflectionGroup`; the identity is id 0
    with word ().  A listed group makes one element per id and hands out
    only those, so elements compare and hash by identity.
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


class _Images(dict):
    """Row i of `ReflectionGroup.lmul`: id w -> id of s_i w, filled on
    first lookup."""

    __slots__ = ("group", "gen")

    def __init__(self, group, gen):
        self.group, self.gen = group, gen

    def __missing__(self, w):
        return self.group._fill(self.gen, w)


class ReflectionGroup:
    """The Weyl group of a finite Cartan matrix, which alone fixes it.

    The group acts in its own coordinates only: a weight v is the tuple of
    its pairings <v, beta_j^vee> with the simple coroots (`act_word`), a
    root the tuple of its coefficients in the simple roots
    (`act_word_root`).  For the Weyl group of a datum these are the datum's
    fundamental-weight and root coordinates; how an integral subsystem sits
    in its datum is kept by `kl.BlockDescriptor`.  There rho_J, half the
    sum of the group's positive roots, is (1, ..., 1), and it is regular,
    so an element w is named by the integer vector w(rho_J):

    - s_i is a left descent of w exactly when entry i of w(rho_J) is
      negative, and then s_i w is one shorter than w, else one longer;
    - w w0 is named by -w(rho_J) and has length l(w0) - l(w).

    Elements are interned on first sight as small ids: `_vecs[w]` is the
    vector of id w, `length[w]` its length, and `lmul[i][w]` the id of
    s_i w, reflected on first lookup.  Only `elements` and `longest_element`
    list the group: breadth first, with canonical words, keeping every id,
    so what was kept by id before (Bruhat intervals, KL columns) stays
    valid.  Listing a group whose `order` exceeds 400000 is refused before
    the walk starts; nothing in the package lists one.
    """

    def __init__(self, cartan):
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        self.num_gens = len(self.cartan)
        # s_i v = v - v[i] mirrors[i]: beta_i is column i of the Cartan matrix
        mirrors = tuple(zip(*self.cartan))

        def reflect(i, vec):
            """Generator i acting on a weight in the group's coordinates."""
            pair = vec[i]
            return tuple(v - pair * m for v, m in zip(vec, mirrors[i]))

        self.reflect = reflect
        self._elements = None           # in (length, word) order once listed
        rho = (1,) * self.num_gens
        self._vecs, self._ids, self.length = [rho], {rho: 0}, [0]
        self.lmul = [_Images(self, i) for i in range(self.num_gens)]
        self._intervals = {0: 1}        # id y -> bitset of [e, y] over ids
        self._kl_columns = {}           # id y -> {x id: P_{x,y}}, see kl.py

    # -- words acting in the group's coordinates ------------------------

    def act_word(self, word, weight):
        vec = weight.coords
        for i in reversed(word):
            vec = self.reflect(i, vec)
        return Weight(vec)

    def act_word_root(self, word, root):
        # s_i root = root - <root, beta_i^vee> beta_i
        for i in reversed(word):
            pair = sum(a * r for a, r in zip(self.cartan[i], root))
            root = root[:i] + (root[i] - pair,) + root[i + 1:]
        return root

    def check_word(self, word):
        """Raise ValueError unless every letter of word is a generator."""
        if any(i not in range(self.num_gens) for i in word):
            raise ValueError("word %r has a letter outside 0..%d"
                             % (tuple(word), self.num_gens - 1))

    def descend(self, vec):
        """(dominant point of the orbit of vec, reduced word of the shortest
        y taking it to vec, drop): reflect in the first generator with a
        negative pairing until none is left.  Each reflection in i adds the
        entry vec[i] it removes to drop[i], so vec - point is the sum of
        drop[i] times column i of the Cartan matrix."""
        word, drop = [], [0] * self.num_gens
        while True:
            i = next((i for i, c in enumerate(vec) if c < 0), None)
            if i is None:
                return vec, word, drop
            drop[i] += vec[i]
            vec = self.reflect(i, vec)
            word.append(i)

    @functools.cached_property
    def order(self):
        """|W| from the Cartan matrix (Kostant): the numbers of positive
        roots of each height form the partition dual to the exponents m_i,
        and |W| = prod (m_i + 1)."""
        counts = collections.Counter(map(sum, _root_closure(self.cartan)))
        return math.prod(1 + sum(n >= i for n in counts.values())
                         for i in range(1, self.num_gens + 1))

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
        image = self.reflect(i, vec)
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
        """l(w0), the number of walls crossed from -rho_J to rho_J."""
        return len(self.descend((-1,) * self.num_gens)[1])

    # -- listing ------------------------------------------------------

    def _materialize(self):
        """List the group breadth first, one layer per length sorted by
        canonical word.  A new element takes the word (i,) + word(u) of the
        first u in the layer before, and for that u the least i, with s_i u
        equal to it.  The walk steps through `lmul`, so every id is kept."""
        if self._elements is not None:
            return
        # no Weyl group of rank at most 6 outgrows |W(E6)| = 51840
        if self.num_gens > 6 and self.order > 400000:
            raise ValueError("reflection group of order %d too large to "
                             "materialize" % self.order)
        lmul = self.lmul
        elements, before, layer = [], set(), [((), 0)]
        while layer:
            elements.extend(WeylElement(self, w, word) for word, w in layer)
            new = {}
            for word, w in layer:
                for i, row in enumerate(lmul):
                    u = row[w]
                    if u not in before and u not in new:
                        new[u] = (i,) + word
            before = {w for _, w in layer}
            layer = sorted((word, u) for u, word in new.items())
        self._elements = elements
        # w0 is the last element; this spares `longest_length` its walk
        self.longest_length = elements[-1].length

    def elements(self):
        """All elements, sorted by (length, word)."""
        self._materialize()
        return list(self._elements)

    def longest_element(self):
        self._materialize()
        return self._elements[-1]  # the only element of the last length

    # -- Bruhat order -------------------------------------------------

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
