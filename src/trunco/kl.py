"""Kazhdan-Lusztig polynomials and level-zero composition multiplicities.

Multiplicities in a block of classical category O are read off through the
antidominant convention: with lambda- antidominant and x, y longest in their
cosets modulo the dot-action stabilizer,

    [M_{x.lambda-} : L_{y.lambda-}] = P_{y,x}(1).

Non-integral highest weights are handled by passing to the subsystem of
roots with integral pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _add(a, b):
    out = [0] * max(len(a), len(b))
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _shift(a, k):
    return _trim((0,) * k + tuple(a)) if a else ()


def _scale(a, c):
    return _trim(tuple(c * x for x in a))


def _mu(group, z, y):
    """Coefficient of q^((l(y)-l(z)-1)/2) in P_{z,y}."""
    gap = y.length - z.length - 1
    if gap < 0 or gap % 2:
        return 0
    p = _kl(group, z, y)
    return p[gap // 2] if gap // 2 < len(p) else 0


def _kl(group, x, y):
    if not group.bruhat_leq(x, y):
        return ()
    if x.key == y.key:
        return (1,)
    memo = group._kl_memo
    key = (x.key, y.key)
    if key in memo:
        return memo[key]
    s = group.left_descent(y)
    gen = group.generator(s)
    sy = group.mult(gen, y)
    sx = group.mult(gen, x)
    c = 1 if group.has_left_descent(x, s) else 0
    acc = _add(_shift(_kl(group, sx, sy), 1 - c),
               _shift(_kl(group, x, sy), c))
    for z in group.elements():
        if z.length >= sy.length + 1 or not group.has_left_descent(z, s):
            continue
        if not (group.bruhat_leq(x, z) and group.bruhat_leq(z, sy)):
            continue
        m = _mu(group, z, sy)
        if m:
            half, odd = divmod(y.length - z.length, 2)
            if odd:
                raise RuntimeError("mu(z, sy) is nonzero at odd length gap")
            acc = _add(acc, _scale(_shift(_kl(group, x, z), half), -m))
    if len(acc) - 1 > (y.length - x.length - 1) // 2:
        raise RuntimeError("P_{x,y} breaks its degree bound: %r %r %r"
                           % (x.word, y.word, acc))
    memo[key] = acc
    return acc


def kl_polynomial(group, x, y):
    """The Kazhdan-Lusztig polynomial P_{x,y} for elements of `group`."""
    return KLPolynomial(_kl(group, x, y))


def integral_subsystem(datum, lam0):
    """Positive roots alpha with <lam0 + rho, alpha^vee> integral.

    Returns (positive_roots, simples) in ambient root coordinates; the
    simples are the indecomposable elements of the positive part.
    """
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


_SUBGROUP_CACHE = {}


def integral_weyl_group(datum, lam0):
    positive, simples = integral_subsystem(datum, lam0)
    key = (datum.key, tuple(positive))
    if key not in _SUBGROUP_CACHE:
        _SUBGROUP_CACHE[key] = ReflectionGroup(datum, simples, positive)
    return _SUBGROUP_CACHE[key]


@dataclass
class BlockDescriptor:
    """Combinatorial data of the level-zero block through lam0."""

    group: ReflectionGroup          # integral Weyl group
    antidominant: Weight            # antidominant dot-orbit representative
    stabilizer_simples: list        # indices of simple reflections fixing it
    dominant: Weight                # dominant point of the orbit of lam0 + rho


def _to_dominant(datum, group, mu):
    """(dominant point of mu's orbit, shortest y taking it to mu), by descent."""
    word = []
    while True:
        for i, r in enumerate(group.simples):
            if datum.pairing(mu, r) < 0:
                mu, word = datum.reflect_weight(r, mu), word + [i]
                break
        else:
            return mu, group.from_word(word)


def block_descriptor(datum, lam0):
    group = integral_weyl_group(datum, lam0)
    dominant, _ = _to_dominant(datum, group, lam0 + datum.rho)
    anti = group.longest_element().act(dominant)
    stab = [i for i, r in enumerate(group.simples) if datum.pairing(anti, r) == 0]
    return BlockDescriptor(group, anti - datum.rho, stab, dominant)


def _longest_taking(datum, desc, target):
    """Longest w with w . antidominant == target: y w0, y shortest in y W_J."""
    point, y = _to_dominant(datum, desc.group, target + datum.rho)
    if point != desc.dominant:
        return None
    return desc.group.mult(y, desc.group.longest_element())


def base_multiplicity(datum, lam0, nu0):
    """[M_{lam0} : L_{nu0}] over the untruncated algebra (level n = 0)."""
    if lam0 == nu0:
        return 1
    if not datum.dominance_leq(nu0, lam0):
        return 0
    desc = block_descriptor(datum, lam0)
    x = _longest_taking(datum, desc, lam0)
    y = _longest_taking(datum, desc, nu0)
    if x is None or y is None:
        return 0
    return int(kl_polynomial(desc.group, y, x)(1))
