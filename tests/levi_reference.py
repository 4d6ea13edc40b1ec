"""Reference forms of the twisting search, used to cross-check
trunc_weights.py.

`singular_roots` and `standard_levi` test a weight root by root: the
singular roots are listed, and the set must be the positive system of the
standard Levi on the simple roots it contains.  `dominant_walk` restates
the package's twist, a walk toward the dominant chamber, with those two
and the datum's pairings; the package folds the first two into one test on
coordinate tuples and reflects in the Weyl group's own coordinates.
`twisting_word` scans the listed Weyl group in (length, word) order for
the minimal-length twist, a different but equally valid choice.
"""

from weyl_ops import act


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


def twisting_word(datum, mu):
    """(canonical word of the first w in (length, word) order with the
    singular roots of w(mu) a standard Levi, J)."""
    for w in datum.weyl_group().elements():
        j = standard_levi(datum, singular_roots(datum, act(w, mu)))
        if j is not None:
            return w.word, j
    raise RuntimeError("no twisting word found")


def dominant_walk(datum, mu):
    """(word, J): while the singular roots of mu are no standard Levi,
    reflect mu in the first simple root alpha_i with <mu, alpha_i^vee> < 0
    and prepend i to the word."""
    word = ()
    while (j := standard_levi(datum, singular_roots(datum, mu))) is None:
        i, pair = next((i, p) for i in range(datum.rank)
                       if (p := datum.pairing(mu, datum.simple_root(i))) < 0)
        mu = mu - pair * datum.root_weight(datum.simple_root(i))
        word = (i,) + word
    return word, j
