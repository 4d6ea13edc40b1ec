"""The truncated Verma character counted a second way, used only by tests
as the independent reference for `characters.verma_character`.

The package counts weight-space dimensions as Kostant partitions of Phi^+
taken n+1 times.  Here they are counted as PBW monomials in the n+1
shifted copies of the lowering operators: multisets over (positive root,
degree 0..n) whose roots sum to beta.  Choosing one root m times across
n+1 degrees gives the binomial factor C(m + n, n).
"""

import math

from trunco.characters import FormalCharacter, cone


def pbw_count(datum, beta, n):
    """The number of PBW monomials of weight -beta at level n."""
    roots = datum.positive_roots
    memo = {}

    def rec(rem, start):
        if all(x == 0 for x in rem):
            return 1
        if start >= len(roots):
            return 0
        key = (rem, start)
        if key in memo:
            return memo[key]
        total = 0
        root = roots[start]
        m = 0
        current = rem
        while True:
            total += math.comb(m + n, n) * rec(current, start + 1)
            current = tuple(x - y for x, y in zip(current, root))
            m += 1
            if any(x < 0 for x in current):
                break
        memo[key] = total
        return total

    return rec(tuple(beta), 0)


def pbw_character(datum, lam, depth):
    """The Verma character of `verma_character`, by PBW monomial counts."""
    return FormalCharacter(base=lam[0], depth=depth, table={
        b: pbw_count(datum, b, lam.level) for b in cone(datum.rank, depth)})
