"""Formal characters truncated to a finite depth below the highest weight.

A character is stored as a table {beta: dim} where beta runs over Z>=0
combinations of the simple roots with height at most `depth`, and the
entry is the dimension of the weight space at (base - beta).  A Verma
character at level n is the datum's (n+1)-fold Kostant partition
function (`verma_character`), whose k-fold counts the engine's folded
levels read too; the oracle counts PBW monomials instead, and
`oracle.build_verma` and the tests check the two against each other.
"""

from __future__ import annotations


def height(beta):
    return sum(beta)


class FormalCharacter:
    def __init__(self, base, depth, table=None):
        self.base = base            # Weight, the highest weight lambda_0
        self.depth = depth
        self.table = {} if table is None else table

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
        # the length of the roots; only a rank-0 system has none
        self.rank = len(self.roots[0]) if self.roots else 0
        self._memo = {}     # (beta, start) -> count over roots[start:]

    def count(self, beta):
        """Ways to write the integer vector beta as a Z>=0 sum of the roots."""
        beta = tuple(beta)
        if len(beta) != self.rank:
            raise ValueError("partition argument %r has %d coordinates, "
                             "expected %d" % (beta, len(beta), self.rank))
        if not all(type(b) is int and b >= 0 for b in beta):
            # 1.0 == 1, so a float is refused by type, as `Weight` does
            if (any(isinstance(b, float) for b in beta)
                    or tuple(map(int, beta)) != beta):
                raise ValueError("non-integer partition argument %r" % (beta,))
            beta = tuple(map(int, beta))
            if min(beta) < 0:
                return 0
        value = self._memo.get((beta, 0))
        return self._count(beta, 0) if value is None else value

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
    if type(depth) is not int or depth < 0:
        raise ValueError("depth must be a nonnegative integer, got %r"
                         % (depth,))
    out = [()]
    for _ in range(rank):
        out = [v + (c,) for v in out for c in range(depth - height(v) + 1)]
    return sorted(out, key=lambda b: (height(b), b))


def verma_character(datum, lam, depth):
    """Character of the Verma module with highest weight `lam` at level n.

    The table does not depend on the weight entries, only on the datum and
    the level: it is the (n+1)-fold convolution of the Kostant partition
    function, the datum's partition function of Phi^+ taken n+1 times.
    """
    datum.check_rank(lam[0])
    count = datum.fold_partitions(lam.level + 1).count
    table = {b: count(b) for b in cone(datum.rank, depth)}
    return FormalCharacter(base=lam[0], depth=depth, table=table)


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
