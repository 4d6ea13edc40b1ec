"""Weights for truncated current algebras and the block combinatorics.

A highest weight for g tensor C[t]/(t^(n+1)) is a tuple
Lambda = (lambda_0, ..., lambda_n) of weights of g; component i pairs with
the degree-i copy of the Cartan.  The tail (lambda_1, ..., lambda_n) labels
the block, and the top component lambda_n decides which standard Levi the
block is equivalent to, after twisting by a Weyl group element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .root_datum import Weight


@dataclass(frozen=True)
class TruncatedWeight:
    """Highest weight (lambda_0, ..., lambda_n), each a Weight of g."""

    components: tuple

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a truncated weight needs a component")
        if len({len(c.coords) for c in components}) != 1:
            raise ValueError("components of unequal lengths: %s"
                             % ", ".join(str(c) for c in components))
        object.__setattr__(self, "components", components)

    @property
    def level(self):
        """The truncation level n."""
        return len(self.components) - 1

    def __getitem__(self, i):
        return self.components[i]

    def tail(self):
        return self.components[1:]

    def truncate(self, new_level):
        return TruncatedWeight(self.components[:new_level + 1])

    def restrict(self, indices):
        """Restriction of every component to a standard Levi."""
        idx = sorted(indices)
        return TruncatedWeight(tuple(
            Weight(tuple(c.coords[j] for j in idx)) for c in self.components))

    def __str__(self):
        return ",".join("[%s]" % ",".join(str(x) for x in c.coords)
                        for c in self.components)


def same_block(lam, nu):
    """Verma modules lie in one block iff their tails agree exactly."""
    return lam.level == nu.level and lam.tail() == nu.tail()


def singular_roots(datum, mu):
    """Positive roots alpha with <mu, alpha^vee> = 0."""
    return [r for r in datum.positive_roots if datum.pairing(mu, r) == 0]


def standard_levi(datum, roots):
    """Simple indices J when `roots` is the positive system of a standard
    Levi subalgebra, else None.

    The test: every member must be a Z>=0 combination of the simple roots
    contained in the set.
    """
    root_set = set(tuple(r) for r in roots)
    j = [i for i in range(datum.rank) if datum.simple_root(i) in root_set]
    span = set()
    for r in root_set:
        if all(c == 0 for k, c in enumerate(r) if k not in j):
            span.add(r)
    if span != root_set:
        return None
    return tuple(j)


def find_twisting_word(datum, mu):
    """Minimal-length w with the singular roots of w(mu) a standard Levi.

    Returns (w, J).  Ties are broken by lexicographically least canonical
    word.  Along the way the chain condition is checked: each reflection in
    the word pairs nontrivially with the partially twisted weight, so the
    twist is a composition of reflections in nonsingular roots.
    """
    group = datum.weyl_group()
    for w in group.elements():  # sorted by (length, word)
        j = standard_levi(datum, singular_roots(datum, w.act(mu)))
        if j is not None:
            _check_chain_condition(datum, w, mu)
            return w, j
    raise RuntimeError("no twisting word found")


def _check_chain_condition(datum, w, mu):
    word = w.word
    partial = mu
    for pos in range(len(word) - 1, -1, -1):
        i = word[pos]
        if datum.pairing(partial, datum.simple_root(i)) == 0:
            raise RuntimeError("twisting word hits a singular reflection")
        partial = datum.reflect_weight(datum.simple_root(i), partial)


def n_dot(datum, w, lam):
    """The shifted dot action on a truncated weight of level n.

    Component zero transforms by w(lambda_0 + (n+1) rho) - (n+1) rho, the
    others by the plain action.  The shift coefficient counts the current
    degrees 0..n, so the level-zero case is the classical dot action.
    """
    n = lam.level
    shift = (n + 1) * datum.rho
    comps = [w.act(lam[0] + shift) - shift]
    comps.extend(w.act(lam[i]) for i in range(1, n + 1))
    return TruncatedWeight(comps)

