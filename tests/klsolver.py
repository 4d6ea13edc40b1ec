"""Independent Kazhdan-Lusztig computation used to cross-check kl.py.

Works from first principles: R-polynomials by the descent recursion, then
the bar-invariance condition solved triangularly for P.  With
d = l(y) - l(x) the condition reads

    q^d P_{x,y}(1/q) - P_{x,y}(q) = sum over x < z <= y of R_{x,z} P_{z,y}

and deg P <= (d - 1)/2, so every coefficient of P appears in the high
degree half of the right hand side.  Bruhat order is recovered from the
vanishing of R rather than taken from the library.
"""

from fractions import Fraction

from weyl_ops import generator, has_left_descent, left_descent, mult


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


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _trim(out)


class KLSolver:
    def __init__(self, group):
        self.group = group
        self._r_memo = {}
        self._p_memo = {}

    def _r(self, x, y):
        """R-polynomial R_{x,y}, low degree first."""
        if x.index == y.index:
            return (1,)
        if x.length >= y.length:
            return ()
        key = (x.index, y.index)
        if key in self._r_memo:
            return self._r_memo[key]
        g = self.group
        s = left_descent(y)
        gen = generator(g, s)
        sy = mult(g, gen, y)
        sx = mult(g, gen, x)
        if has_left_descent(g, x, s):
            out = self._r(sx, sy)
        else:
            out = _add(_mul((-1, 1), self._r(x, sy)),
                       _mul((0, 1), self._r(sx, sy)))
        self._r_memo[key] = out
        return out

    def leq(self, x, y):
        """Bruhat order, read off the nonvanishing of R."""
        return x.index == y.index or bool(self._r(x, y))

    def kl(self, x, y):
        """P_{x,y} as a tuple of coefficients, low degree first."""
        if not self.leq(x, y):
            return ()
        if x.index == y.index:
            return (1,)
        key = (x.index, y.index)
        if key in self._p_memo:
            return self._p_memo[key]
        d = y.length - x.length
        rhs = ()
        for z in self.group.elements():
            if z.length <= x.length or z.length > y.length:
                continue
            if not (self.leq(x, z) and self.leq(z, y)):
                continue
            rhs = _add(rhs, _mul(self._r(x, z), self.kl(z, y)))
        coeffs = []
        for k in range((d - 1) // 2 + 1):
            coeffs.append(rhs[d - k] if d - k < len(rhs) else 0)
        p = _trim(coeffs)
        # consistency: rebuild the defining identity exactly
        check = [0] * (d + 1)
        for k, c in enumerate(p):
            check[d - k] += c
            check[k] -= c
        assert _trim(check) == _trim(rhs), (x.word, y.word, p, rhs)
        self._p_memo[key] = p
        return p
