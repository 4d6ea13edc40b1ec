"""Weights for truncated current algebras and the block combinatorics.

A highest weight for g tensor C[t]/(t^(n+1)) is a tuple
Lambda = (lambda_0, ..., lambda_n) of weights of g; component i pairs with
the degree-i copy of the Cartan.  The tail (lambda_1, ..., lambda_n) labels
the block, and the top component lambda_n decides which standard Levi the
block is equivalent to, after twisting by a Weyl group element.
"""

from __future__ import annotations

from .root_datum import Frozen, Weight


class TruncatedWeight(Frozen):
    """Highest weight (lambda_0, ..., lambda_n), each a Weight of g."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a truncated weight needs a component")
        if len({len(c.coords) for c in components}) != 1:
            raise ValueError("components of unequal lengths: %s"
                             % ", ".join(str(c) for c in components))
        object.__setattr__(self, "components", components)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.components == other.components
        return NotImplemented

    def __hash__(self):
        return hash((self.components,))

    def __repr__(self):
        return "TruncatedWeight(components=%r)" % (self.components,)

    @property
    def level(self):
        """The truncation level n."""
        return len(self.components) - 1

    def __getitem__(self, i):
        return self.components[i]

    def tail(self):
        return self.components[1:]

    def __str__(self):
        return ",".join("[%s]" % ",".join(str(x) for x in c.coords)
                        for c in self.components)


def same_block(lam, nu):
    """Verma modules lie in one block iff their tails agree exactly."""
    return lam.level == nu.level and lam.tail() == nu.tail()


def _singular_levi(datum, nu):
    """J = {i : nu_i = 0} when the roots singular for the weight with
    coordinates nu are the positive roots of the standard Levi on J, else
    None.

    Every root supported on J is singular, so the test is the converse:
    each positive root alpha with <nu, alpha^vee> = 0 is supported on J.
    A dominant nu needs no scan: a positive coroot pairs with it as a Z>=0
    sum of its entries, zero only off the support of alpha (Humphreys 1.12).
    """
    j = tuple(i for i, c in enumerate(nu) if c == 0)
    if all(c >= 0 for c in nu):
        return j
    for root in datum.positive_roots:
        if (not sum(c * v for c, v in zip(datum.coroot_coords(root), nu))
                and any(root[i] for i in range(datum.rank) if nu[i] != 0)):
            return None
    return j


def find_twisting_word(datum, mu):
    """A w with the singular roots of w(mu) a standard Levi: (word of w, J).

    The walk toward the dominant chamber: while the singular roots are not
    a standard Levi, reflect in the first generator with a negative entry
    and prepend it to the word.  It ends at the dominant point at the
    latest, whose singular roots are those of the standard Levi on its zero
    entries (Humphreys, Reflection Groups and Coxeter Groups, 1.12).  Each
    letter reflects in a strictly negative pairing, so the twist is a
    composition of reflections in nonsingular roots (the chain condition).
    A mu that is already standard keeps the empty word.
    """
    datum.check_rank(mu)
    reflect = datum.weyl_group().reflect
    word, vec = (), mu.coords
    while (j := _singular_levi(datum, vec)) is None:
        i = next(i for i, c in enumerate(vec) if c < 0)
        vec = reflect(i, vec)
        word = (i,) + word
    return word, j


def shifted_dot(datum, word, lam0, n):
    """Component zero of the level-n shifted dot action of a Weyl group
    word: w(lambda_0 + (n+1) rho) - (n+1) rho.

    The shift coefficient counts the current degrees 0..n, so the level-zero
    case is the classical dot action.
    """
    shift = Weight((n + 1,) * datum.rank)       # (n+1) rho
    return datum.weyl_group().act_word(word, lam0 + shift) - shift


def n_dot(datum, word, lam):
    """The shifted dot action of a Weyl group word on a truncated weight of
    level n: `shifted_dot` on component zero, the plain action on the
    others."""
    datum.check_rank(lam[0])
    datum.weyl_group().check_word(word)
    n = lam.level
    act = datum.weyl_group().act_word
    comps = [shifted_dot(datum, word, lam[0], n)]
    comps.extend(act(word, lam[i]) for i in range(1, n + 1))
    return TruncatedWeight(comps)
