"""Kazhdan-Lusztig polynomials and level-zero composition multiplicities.

Multiplicities in a block of classical category O are read off through the
antidominant convention: with lambda- antidominant and x, y longest in their
cosets modulo the dot-action stabilizer,

    [M_{x.lambda-} : L_{y.lambda-}] = P_{y,x}(1).

Non-integral highest weights are handled by passing to the subsystem of
roots with integral pairing.  Writing x = y w0 and y = y' w0 with y and y'
shortest in their cosets, the value is P_{y' w0, y w0}(1) = Q_{y,y'}(1), the
inverse KL polynomial of `leaf_polynomial`.  `_kl_coeffs` reads it from a
stored column of y w0, else from the shorter end: [y, y'] by the inversion
formula (see `_inverse_entry`), or the column of y w0.  The work runs on
the element ids of `ReflectionGroup`, named by their vectors w(rho), and
never lists the group; `kl_polynomial` goes through the same helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .root_datum import ReflectionGroup, Weight


@dataclass(frozen=True)
class KLPolynomial:
    """Polynomial in q with integer coefficients, low degree first."""

    coeffs: tuple

    def __call__(self, value):
        return sum(c * value ** k for k, c in enumerate(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                q = "q" if k == 1 else "q^%d" % k
                terms.append(q if c == 1 else "%d%s" % (c, q))
        return "+".join(terms) if terms else "0"


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _accumulate(acc, poly, shift, factor):
    """acc += factor * q^shift * poly, in place on a coefficient list."""
    acc.extend([0] * (len(poly) + shift - len(acc)))
    for k, c in enumerate(poly, shift):
        acc[k] += factor * c


def _column(group, y):
    """{x id: P_{x,y}} over the Bruhat interval [e, y], for the id y.

    With s a left descent of y, v = sy, and c = 1 when sx < x, else 0
    (Humphreys, Reflection Groups and Coxeter Groups, 7.11):

        P_{x,y} = q^(1-c) P_{sx,v} + q^c P_{x,v}
                  - sum over z < v with sz < z of mu(z,v) q^((l(y)-l(z))/2) P_{x,z}

    where mu(z,v) is the coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}.
    Columns are kept on the group.
    """
    column = group._kl_columns.get(y)
    if column is not None:
        return column
    lmul, length = group.lmul, group.length
    if y == 0:
        column = {0: (1,)}
    else:
        # s[w] is the id of s w, for a left descent s of y
        s = lmul[group._descent(y)]
        v = s[y]
        lower = _column(group, v)
        acc = {}
        for u, p in lower.items():
            # x = u and x = su both take q^c P_{u,v} with c = [su < u]
            c = 1 if length[s[u]] < length[u] else 0
            for x in (u, s[u]):
                _accumulate(acc.setdefault(x, []), p, c, 1)
        for z, p in lower.items():
            # mu(z, v) = p[k]; z = v has an odd gap of -1
            k, odd = divmod(length[v] - length[z] - 1, 2)
            if odd or k >= len(p) or not p[k] or length[s[z]] > length[z]:
                continue
            half, odd = divmod(length[y] - length[z], 2)
            if odd:
                raise RuntimeError("mu(z, sy) is nonzero at odd length gap")
            for x, pxz in _column(group, z).items():
                _accumulate(acc[x], pxz, half, -p[k])
        column = {}
        for x, coeffs in acc.items():
            p = column[x] = _trim(coeffs)
            if x != y and len(p) - 1 > (length[y] - length[x] - 1) // 2:
                raise RuntimeError("P_{x,y} breaks its degree bound at "
                                   "ids %d, %d: %r" % (x, y, p))
    group._kl_columns[y] = column
    return column


def _inverse_entry(group, a, b):
    """The (a, b) entry of the inverse of A_{u,v} = (-1)^(l(u)+l(v)) P_{u,v}
    on the Bruhat interval [a, b], for ids a and b; () when a is not below b.

    By the Kazhdan-Lusztig inversion formula (Kazhdan and Lusztig,
    Representations of Coxeter groups and Hecke algebras, Invent. Math. 53
    (1979), Theorem 3.1),

        sum over x <= z <= w of (-1)^(l(x)+l(z)) P_{x,z} P_{w0 w, w0 z}
            = delta_{x,w},

    this entry is P_{w0 b, w0 a} = Q_{a,b}.  Row a of the inverse is found
    by back-substitution, R_v = -sum over a <= z < v of R_z A_{z,v}, which
    needs only the columns of elements no longer than b.
    """
    length = group.length
    lower = group._interval(b)          # [e, b]; it is short when b is
    if not lower >> a & 1:
        return ()
    between = []                        # [a, b] but a
    while lower:
        low = lower & -lower
        lower ^= low
        v = low.bit_length() - 1
        if v != a and group._interval(v) >> a & 1:
            between.append(v)
    # every z < v comes before v
    between.sort(key=length.__getitem__)
    row = {a: (1,)}
    for v in between:
        column = _column(group, v)
        # deg R_z + deg P_{z,v} <= (l(v) - l(a)) / 2 by the degree bounds
        acc = [0] * ((length[v] - length[a]) // 2 + 1)
        for z, r in row.items():
            p = column.get(z)
            if p:
                sign = 1 if (length[z] + length[v]) % 2 else -1
                for k, c in enumerate(r):
                    if c:
                        c *= sign
                        for m, d in enumerate(p, k):
                            acc[m] += c * d
        row[v] = _trim(acc)
    return row[b]


def _times_w0(group, w):
    """The id of w w0, which is named by the negated vector of w."""
    return group._intern(tuple(-c for c in group._vecs[w]),
                         group.longest_length - group.length[w])


def _kl_coeffs(group, x, y):
    """P_{x,y} for ids x and y, as coefficients.

    From the stored column of y when there is one; else from whichever end
    of the Bruhat order is shorter: the column of y, or the interval
    [y w0, x w0] through the inversion formula, as Q_{y w0, x w0} (see
    `_inverse_entry`).
    """
    column = group._kl_columns.get(y)
    if column is None:
        if group.longest_length - group.length[x] < group.length[y]:
            return _inverse_entry(group, _times_w0(group, y),
                                  _times_w0(group, x))
        column = _column(group, y)
    return column.get(x, ())


def kl_polynomial(group, x, y):
    """The Kazhdan-Lusztig polynomial P_{x,y} for elements of `group`."""
    return KLPolynomial(_kl_coeffs(group, x.index, y.index))


def integral_subsystem(datum, lam0):
    """Positive roots alpha with <lam0 + rho, alpha^vee> integral.

    Returns (positive_roots, simples) in ambient root coordinates; the
    simples are the indecomposable elements of the positive part.
    """
    datum.check_rank(lam0)
    if all(type(c) is int for c in lam0.coords):
        # every coroot pairs integrally with lam0 + rho, and a positive
        # root above height one is a positive root plus a simple one
        positive = list(datum.positive_roots)
        return positive, [r for r in positive if sum(r) == 1]
    shifted = lam0 + datum.rho
    positive = [r for r in datum.positive_roots
                if datum.pairing(shifted, r).denominator == 1]
    pos_set = set(positive)
    simples = []
    for r in positive:
        decomposable = any(
            tuple(a - b for a, b in zip(r, other)) in pos_set
            for other in positive if other != r)
        if not decomposable:
            simples.append(r)
    return positive, simples


def integral_weyl_group(datum, lam0):
    """The datum's reflection group on the integral simples of lam0."""
    return datum.reflection_group(integral_subsystem(datum, lam0)[1])


@dataclass(eq=False)
class BlockDescriptor:
    """The level-zero block through lam0, as the KL layer answers it.

    Vectors are in the coordinates of the integral Weyl group `group`: a
    weight v is the tuple of its pairings <v, beta_j^vee> with the integral
    simple coroots.  `shifted` is lam0 + rho so written, `dominant` the
    dominant point of its orbit, and `y` the vector (see `ReflectionGroup`)
    of the shortest y taking that point to lam0 + rho; the longest w with
    w . antidominant == lam0 is then y w0.  For an offset beta in simple
    roots, nu_0 + rho = lam0 + rho - beta is `shifted` minus the integer
    product `pairings` . beta, with pairings[j][k] = <alpha_k, beta_j^vee>.
    Those coordinates forget the part of beta outside the span of the
    integral simples, which `normals` detects: integer vectors whose dot
    products vanish exactly on that span (none when the group has full
    rank).  `top` gives y w0 as a listed element and `antidominant` the
    point top^-1 (lam0 + rho) - rho, for the trace; they list the group.
    There is one descriptor per datum and lam0, compared by identity.
    """

    group: ReflectionGroup          # integral Weyl group
    lam0: Weight
    shifted: tuple                  # lam0 + rho, group coordinates
    pairings: tuple                 # <alpha_k, beta_j^vee>, row j
    normals: tuple                  # integer normals to the span of the simples
    dominant: tuple                 # dominant point of the orbit of shifted
    y: tuple                        # vector of the shortest y (see above)

    def listed_times_w0(self, vec):
        """The listed element w w0, for the element w named by vec."""
        group = self.group
        group._materialize()
        return group._elements[group._ids[tuple(-c for c in vec)]]

    @property
    def top(self):
        return self.listed_times_w0(self.y)

    @property
    def antidominant(self):
        rho = self.group.datum.rho
        return self.group.act_word(self.top.word[::-1], self.lam0 + rho) - rho


def _descend(group, vec):
    """(dominant point of the orbit of vec, reduced word of the shortest y
    taking it to vec), for a vector in the group's coordinates: reflect in
    the first simple with a negative pairing until none is left."""
    reflect = group._reflect
    word = []
    while True:
        i = next((i for i, c in enumerate(vec) if c < 0), None)
        if i is None:
            return vec, word
        vec = reflect(i, vec)
        word.append(i)


def _span_normals(simples, rank):
    """Integer vectors x with x . s = 0 for every simple s: a basis of the
    null space of the matrix whose rows are the simples."""
    if len(simples) == rank:
        return ()
    ech, pivots = linalg.row_echelon(simples)
    normals = []
    for free in range(rank):
        if free in pivots:
            continue
        x = [Fraction(0)] * rank
        x[free] = Fraction(1)
        for row, p in zip(ech, pivots):
            x[p] = -row[free]
        den = math.lcm(*(c.denominator for c in x))
        normals.append(tuple(int(c * den) for c in x))
    return tuple(normals)


def block_descriptor(datum, lam0):
    """The descriptor of the level-zero block through lam0, one per datum
    and lam0, built on first use."""
    desc = datum._descriptors.get(lam0)
    if desc is None:
        group = integral_weyl_group(datum, lam0)
        lam_rho = lam0 + datum.rho
        # integral by the choice of simples
        shifted = tuple(int(datum.pairing(lam_rho, r)) for r in group.simples)
        columns = tuple(zip(*datum.cartan))     # alpha_k, weight coordinates
        pairings = tuple(
            tuple(sum(c * a for c, a in zip(datum.coroot_coords(r), column))
                  for column in columns)
            for r in group.simples)
        dominant, word = _descend(group, shifted)
        desc = datum._descriptors[lam0] = BlockDescriptor(
            group, lam0, shifted, pairings,
            _span_normals(group.simples, datum.rank), dominant,
            group._vecs[group._apply(word, 0)])
    return desc


def leaf_polynomial(datum, lam0, beta):
    """(vector of y', coefficients of Q_{y,y'}) for the level-zero leaf
    [M_{lam0} : L_{lam0 - beta}], beta integer coefficients of the simple
    roots; None when lam0 - beta lies outside the block of lam0.

    y and y' are shortest taking the dominant point to lam0 + rho and to
    lam0 + rho - beta, and Q_{y,y'} = P_{y' w0, y w0}.  lam0 - beta lies in
    the block when lam0 + rho - beta has the same dominant point in the
    coordinates of the integral Weyl group and beta lies in the span of the
    integral simples: the two dominant points then differ by a vector in
    that span orthogonal to every integral coroot, which is zero.
    """
    desc = block_descriptor(datum, lam0)
    if any(sum(x * b for x, b in zip(normal, beta)) for normal in desc.normals):
        return None
    group = desc.group
    vec = tuple(s - sum(p * b for p, b in zip(row, beta))
                for s, row in zip(desc.shifted, desc.pairings))
    point, word = _descend(group, vec)
    if point != desc.dominant:
        return None
    y2 = group._apply(word, 0)
    top = _times_w0(group, group._ids[desc.y])
    return group._vecs[y2], _kl_coeffs(group, _times_w0(group, y2), top)


def offset_multiplicity(datum, lam0, beta):
    """[M_{lam0} : L_{lam0 - beta}] over the untruncated algebra (level
    n = 0), for beta a tuple of Z>=0 coefficients of the simple roots."""
    if not any(beta):
        return 1
    leaf = leaf_polynomial(datum, lam0, beta)
    return 0 if leaf is None else sum(leaf[1])


def base_multiplicity(datum, lam0, nu0):
    """[M_{lam0} : L_{nu0}] over the untruncated algebra (level n = 0)."""
    beta = datum.dominance_offset(nu0, lam0)
    if beta is None:
        return 0
    return offset_multiplicity(datum, lam0, beta)
