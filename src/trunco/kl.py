"""Kazhdan-Lusztig polynomials and level-zero composition multiplicities.

Multiplicities in a block of category O are read in the dominant
convention of `ReflectionGroup.descend`.  Let d be the block's dominant
point in the integral Weyl group's coordinates, W_J the stabilizer of d
(J = {i : d_i = 0}) and w_{0,J} its longest element.  With lam0 + rho =
y(d) and nu0 + rho = y'(d), y and y' shortest in their cosets modulo W_J,
and y'_max = y' w_{0,J}, the longest element of y' W_J,

    [M_{lam0} : L_{nu0}] = P_{y, y'_max}(1).

For d regular this is the Kazhdan-Lusztig conjecture (Invent. Math. 53
(1979), Conjecture 1.5: ch M_w = sum over y of P_{w0 w, w0 y}(1) ch L_y,
with M_w of highest weight (w w0) . 0; conjugation by w0 keeps P), proved
by Beilinson-Bernstein and by Brylinski-Kashiwara.  For d singular,
translate to the wall (Humphreys, BGG Category O, ch. 7): translation is
exact, takes M(w . reg) to M(w . lam) and L(w . reg) to L(w . lam) when w
is longest in w W_J, else to 0.  In sl2 it takes L(0) to 0 and L(s . 0)
to L(-1): the survivor is the longest coset element.  So the value is
[M(y . reg) : L(y'_max . reg)] = P_{y, y'_max}(1); and P_{w, x} with x
longest in its coset does not depend on w in its coset.

Non-integral highest weights are handled by passing to the subsystem of
roots with integral pairing, one per datum and fractional parts of lam0
(`_integral_class`): its Weyl group is the `ReflectionGroup` of its own
Cartan matrix, and `BlockDescriptor` alone keeps how it sits in the
ambient datum; block membership is decided in integers (`leaf_polynomial`).
`_kl_coeffs` reads P_{x,y} from a stored column of y, else from the
shorter end: the column of y, or [y w0, x w0] by the inversion formula
(`_inverse_entry`).  The work runs on element ids, named by their vectors
w(rho), and never lists the group.
"""

from __future__ import annotations

import math

from .root_datum import Frozen


class KLPolynomial(Frozen):
    """Polynomial in q with integer coefficients, low degree first."""

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return "KLPolynomial(coeffs=%r)" % (self.coeffs,)

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
    """The Kazhdan-Lusztig polynomial P_{x,y} for elements of `group`:
    both listed elements, or both ids (`ReflectionGroup._apply`) that the
    group has interned; anything else raises ValueError."""
    if not all(type(w) is int and 0 <= w < len(group._vecs) for w in (x, y)):
        if not all(getattr(w, "group", None) is group for w in (x, y)):
            raise ValueError("x and y must be both interned ids or both "
                             "listed elements of this group")
        x, y = x.index, y.index
    return KLPolynomial(_kl_coeffs(group, x, y))


def integral_subsystem(datum, lam0):
    """Positive roots alpha with <lam0 + rho, alpha^vee> integral.

    Returns (positive_roots, simples) in ambient root coordinates; the
    simples are the indecomposable elements of the positive part.
    """
    datum.check_rank(lam0)
    if all(type(c) is int for c in lam0.coords):
        # every coroot pairs integrally with lam0 + rho; the simples are
        # the datum's own, in its order, so the integral group is its W
        return (list(datum.positive_roots),
                [datum.simple_root(i) for i in range(datum.rank)])
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
    """The integral Weyl group of lam0 (see `BlockDescriptor`)."""
    return block_descriptor(datum, lam0).group


class BlockDescriptor:
    """The level-zero block through lam0, as the KL layer answers it.

    The one place that knows how the integral subsystem of lam0 sits in the
    ambient `datum`: `simples` are its simple roots beta_j in the datum's
    root coordinates, and `group` the Weyl group of its Cartan matrix
    <beta_k, beta_j^vee>.  Vectors are in the group's coordinates: a weight
    v is the tuple of its pairings <v, beta_j^vee>.  `shifted` is lam0 +
    rho so written, `dominant` the dominant point d of its orbit, `drop`
    what `ReflectionGroup.descend` drops on the way there, `word` the
    reduced word it returns, of the shortest y with y(d) = lam0 + rho, and
    `y` the vector of y (see `ReflectionGroup`).  `w0j_word` and `w0j` are
    a reduced word and the vector of w_{0,J}, the longest element fixing d.
    For an offset beta in simple roots, nu_0 + rho = lam0 + rho - beta is
    `shifted` minus the integer product `pairings` . beta, with
    pairings[j][k] = <alpha_k, beta_j^vee>.  Those coordinates forget the
    part of beta outside the span of the integral simples; `offset` reads
    beta back from a drop.  There is one descriptor per datum and lam0,
    compared by identity.
    """

    def __init__(self, datum, simples, group, shifted, pairings, dominant,
                 drop, word):
        self.datum = datum          # the ambient RootDatum
        self.simples = simples      # integral simples, ambient root coordinates
        self.group = group          # integral Weyl group, a ReflectionGroup
        self.shifted = shifted      # lam0 + rho, group coordinates
        self.pairings = pairings    # <alpha_k, beta_j^vee>, row j
        self.dominant = dominant    # dominant point of the orbit of shifted
        self.drop = drop            # drop of shifted to dominant (see above)
        self.word = word            # reduced word of the shortest y
        self.y = group._vecs[group._apply(word, 0)]
        # w_{0,J}: from rho_J, step up in the generators fixing d
        w0j, steps = (1,) * group.num_gens, []
        fixing = [i for i, c in enumerate(dominant) if c == 0]
        while (i := next((i for i in fixing if w0j[i] > 0), None)) is not None:
            w0j = group.reflect(i, w0j)
            steps.append(i)
        self.w0j_word, self.w0j = tuple(reversed(steps)), w0j

    def offset(self, drop):
        """sum_j (self.drop - drop)_j beta_j, in the datum's root
        coordinates.  Reflecting in beta_j subtracts column j of the Cartan
        matrix in the group's coordinates and beta_j in the datum, so a
        weight v + rho whose vector descends to `dominant` with this drop
        reaches the same ambient point as lam0 + rho exactly when lam0 - v
        is offset(drop)."""
        diff = [a - b for a, b in zip(self.drop, drop)]
        return tuple(sum(d * beta[k] for d, beta in zip(diff, self.simples))
                     for k in range(self.datum.rank))


def _integral_class(datum, lam0, frac):
    """(simples, their coroots, pairings, group, base) of the integral
    subsystem of lam0, one per datum and frac = lam0 - floor lam0: coroot
    coordinates are integers, so which <lam0 + rho, alpha^vee> are integral
    depends on frac alone, and so does base_j = <frac + rho, beta_j^vee>."""
    entry = datum._subsystems.get(frac)
    if entry is None:
        simples = tuple(integral_subsystem(datum, lam0)[1])
        coroots = tuple(datum.coroot_coords(r) for r in simples)
        columns = tuple(zip(*datum.cartan))     # alpha_k, weight coordinates
        pairings = tuple(tuple(sum(c * a for c, a in zip(coroot, column))
                               for column in columns) for coroot in coroots)
        group = datum.reflection_group(
            [[sum(p * b for p, b in zip(row, beta)) for beta in simples]
             for row in pairings])
        # integral by the choice of simples
        base = tuple(int(sum(c * (x + 1) for c, x in zip(coroot, frac)))
                     for coroot in coroots)
        entry = datum._subsystems[frac] = (simples, coroots, pairings, group,
                                           base)
    return entry


def block_descriptor(datum, lam0):
    """The descriptor of the level-zero block through lam0, one per datum
    and lam0, built on first use from the datum's entry for the fractional
    part of lam0 (`_integral_class`): `shifted` is its base plus one
    integer dot product per simple, with the floor of lam0."""
    desc = datum._descriptors.get(lam0)
    if desc is None:
        datum.check_rank(lam0)
        floor = [math.floor(c) for c in lam0.coords]
        simples, coroots, pairings, group, base = _integral_class(
            datum, lam0, tuple(c - f for c, f in zip(lam0.coords, floor)))
        shifted = tuple(b + sum(c * f for c, f in zip(coroot, floor))
                        for b, coroot in zip(base, coroots))
        dominant, word, drop = group.descend(shifted)
        desc = datum._descriptors[lam0] = BlockDescriptor(
            datum, simples, group, shifted, pairings, dominant, tuple(drop),
            tuple(word))
    return desc


def _check_offset(datum, beta):
    if len(beta) != datum.rank:
        raise ValueError("offset %s has %d coordinates, expected %d"
                         % (tuple(beta), len(beta), datum.rank))
    if not all(type(b) is int for b in beta):
        raise ValueError("non-integer offset %r" % (tuple(beta),))


def leaf_polynomial(datum, lam0, beta):
    """(reduced word of y'_max, coefficients of P_{y, y'_max}) for the
    level-zero leaf [M_{lam0} : L_{lam0 - beta}], beta integer coefficients
    of the simple roots; None when lam0 - beta lies outside the block of
    lam0.

    y and y' are shortest taking the dominant point to lam0 + rho and to
    lam0 + rho - beta, and y'_max = y' w_{0,J} (see the module docstring).
    lam0 - beta lies in the block when lam0 + rho - beta has the same
    dominant point in the coordinates of the integral Weyl group, and the
    two descents drop beta (`BlockDescriptor.offset`): the two weights then
    reach one ambient point.  A group of full rank needs no second test,
    since no nonzero weight is orthogonal to every integral coroot.
    """
    _check_offset(datum, beta)
    desc = block_descriptor(datum, lam0)
    group = desc.group
    vec = tuple(s - sum(p * b for p, b in zip(row, beta))
                for s, row in zip(desc.shifted, desc.pairings))
    point, word, drop = group.descend(vec)
    if point != desc.dominant or (group.num_gens < datum.rank
                                  and desc.offset(drop) != tuple(beta)):
        return None
    # y' is shortest in y' W_J, so l(y' w_{0,J}) = l(y') + l(w_{0,J})
    top, reflect = desc.w0j, group.reflect
    for i in reversed(word):
        top = reflect(i, top)
    word = tuple(word) + desc.w0j_word
    top = group._intern(top, len(word))
    return word, _kl_coeffs(group, group._ids[desc.y], top)


def offset_multiplicity(datum, lam0, beta):
    """[M_{lam0} : L_{lam0 - beta}] over the untruncated algebra (level
    n = 0), for beta a tuple of Z>=0 coefficients of the simple roots."""
    if any(beta):
        # leaf_polynomial checks beta
        leaf = leaf_polynomial(datum, lam0, beta)
        return 0 if leaf is None else sum(leaf[1])
    _check_offset(datum, beta)
    return 1


def base_multiplicity(datum, lam0, nu0):
    """[M_{lam0} : L_{nu0}] over the untruncated algebra (level n = 0)."""
    beta = datum.dominance_offset(nu0, lam0)
    if beta is None:
        return 0
    return offset_multiplicity(datum, lam0, beta)
