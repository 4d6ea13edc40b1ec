"""Formal characters truncated to a finite depth below the highest weight.

A character is stored as a table {beta: dim} where beta runs over Z>=0
combinations of the simple roots with height at most `depth`, and the
entry is the dimension of the weight space at (base - beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def height(beta):
    return sum(beta)


@dataclass
class FormalCharacter:
    base: object                 # Weight, the highest weight lambda_0
    depth: int
    table: dict = field(default_factory=dict)

    def coefficient(self, beta):
        return self.table.get(tuple(beta), 0)

    def __eq__(self, other):
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        if self.base != other.base or self.depth != other.depth:
            return False
        keys = set(self.table) | set(other.table)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)


class PartitionCache:
    """Kostant partition function for a fixed list of positive roots."""

    def __init__(self, positive_roots):
        self.roots = [tuple(r) for r in positive_roots]
        self._memo = {}

    def count(self, beta):
        """Ways to write the integer vector beta as a Z>=0 sum of the roots."""
        key = tuple(map(int, beta))
        if key != tuple(beta):
            raise ValueError("non-integer partition argument %r" % (beta,))
        if any(b < 0 for b in key):
            return 0
        return self._count(key, 0)

    def _count(self, beta, start):
        if all(b == 0 for b in beta):
            return 1
        if start >= len(self.roots):
            return 0
        key = (beta, start)
        if key in self._memo:
            return self._memo[key]
        total = 0
        root = self.roots[start]
        current = beta
        while True:
            total += self._count(current, start + 1)
            current = tuple(b - r for b, r in zip(current, root))
            if any(b < 0 for b in current):
                break
        self._memo[key] = total
        return total


def kostant_partition(datum, beta):
    return datum.partitions.count(beta)


def cone(rank, depth):
    """All nonnegative integer vectors of height <= depth, by height."""
    if depth < 0:
        raise ValueError("depth must be nonnegative, got %d" % depth)
    out = [()]
    for _ in range(rank):
        out = [v + (c,) for v in out for c in range(depth - height(v) + 1)]
    return sorted(out, key=lambda b: (height(b), b))


def verma_character(datum, lam, depth, method="convolution"):
    """Character of the Verma module with highest weight `lam` at level n.

    The table does not depend on the weight entries, only on the datum and
    the level: it is the (n+1)-fold convolution of the Kostant partition
    function, computed as the partition function of Phi^+ taken n+1 times.
    `method="pbw"` instead counts monomials in the n+1 shifted copies of the
    lowering operators directly; the two must agree.
    """
    datum.check_rank(lam[0])
    n = lam.level
    offsets = cone(datum.rank, depth)
    if method == "convolution":
        count = PartitionCache(datum.positive_roots * (n + 1)).count
        table = {b: count(b) for b in offsets}
    elif method == "pbw":
        table = {b: _pbw_count(datum, b, n) for b in offsets}
    else:
        raise ValueError("unknown method %r" % method)
    return FormalCharacter(base=lam[0], depth=depth, table=table)


def _pbw_count(datum, beta, n):
    """Monomial count: multisets over (positive root, degree 0..n) with the
    roots summing to beta.  Choosing a root m times across n+1 degrees gives
    a binomial factor."""
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

    return rec(tuple(int(b) for b in beta), 0)


class DecompositionError(ValueError):
    """Raised when a character fails to decompose with nonnegative
    multiplicities, i.e. the supplied simple characters are inconsistent."""


def decompose_in_block(datum, character, simple_provider):
    """Greedy decomposition of a character into simple characters.

    `simple_provider(eta_beta)` takes the offset (root coordinates of
    base - eta) and must return the character of the simple with highest
    weight at that offset, truncated to depth >= character.depth - height.
    Returns {offset: multiplicity} over offsets with nonzero multiplicity.
    """
    residual = dict(character.table)
    mults = {}
    for beta in sorted(residual, key=lambda b: (height(b), b)):
        m = residual.get(beta, 0)
        if m < 0:
            raise DecompositionError("negative residual at %r" % (beta,))
        if m == 0:
            continue
        mults[beta] = m
        simple = simple_provider(beta)
        for gamma, dim in simple.table.items():
            if dim == 0:
                continue
            total = tuple(b + g for b, g in zip(beta, gamma))
            if total in residual:
                residual[total] -= m * dim
    for beta, value in residual.items():
        if value < 0:
            raise DecompositionError("negative residual at %r" % (beta,))
    return mults
