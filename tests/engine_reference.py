"""The engine's level reduction done afresh for every query, used only by
tests as the reference for `engine._reduce` and its block plans.

Each query searches its own twisting word, twists lambda and nu by `n_dot`,
and finds the Levi offset from the two twisted weights; nothing is kept
between queries.  It reduces one level at a time, also where the engine
folds a run of levels into one convolution with a k-fold partition
function, so the tests check those folds against it.  Level zero is the
engine's base case.  `twist` chooses the twisting word and its Levi,
(datum, mu) -> (word, J); it defaults to the engine's own
`find_twisting_word`, and any other valid choice must give the same
values.  `truncate` and `restrict` cut a truncated weight to
a lower level and to a standard Levi.
"""

import itertools

from trunco import engine
from trunco.root_datum import Weight
from trunco.trunc_weights import (TruncatedWeight, find_twisting_word, n_dot,
                                  same_block)


def truncate(lam, level):
    """The components of lam up to degree `level`."""
    return TruncatedWeight(lam.components[:level + 1])


def restrict(lam, indices):
    """Restriction of every component of lam to a standard Levi."""
    idx = sorted(indices)
    return TruncatedWeight(tuple(
        Weight(tuple(c.coords[j] for j in idx)) for c in lam.components))


def multiplicity(datum, lam, nu, trace, twist=find_twisting_word):
    """(value, trace node or None) of [M_lam : L_nu]."""
    n = lam.level
    if not same_block(lam, nu):
        value, node = 0, engine._zero_trace("different blocks")
    elif (beta := datum.dominance_offset(nu[0], lam[0])) is None:
        value, node = 0, engine._zero_trace("nu_0 not below lambda_0")
    elif n == 0:
        value, node = engine._value(datum, None, lam[0].coords, beta, trace)
    else:
        value, node = _reduce_level(datum, lam, nu, trace, twist)
    return value, (node if trace else None)


def _reduce_level(datum, lam, nu, trace, twist):
    n = lam.level
    word, levi = twist(datum, lam[n])
    lam2 = n_dot(datum, word, lam)
    nu2 = n_dot(datum, word, nu)
    delta = datum.dominance_offset(nu2[0], lam2[0])
    if delta is not None and any(
            c for j, c in enumerate(delta) if j not in levi):
        delta = None            # not a combination of the Levi's simples
    node = engine.MultiplicityTrace("reduce", 0, {
        "n": n,
        "twisting_word": list(word),
        "levi": list(levi),
        "lambda_twisted": str(lam2),
        "nu_twisted": str(nu2),
        "contributions": [],
    }) if trace else None
    if delta is None:
        if trace:
            node.details["reason"] = "weights not linked through the Levi"
        return 0, node
    sub = datum.sub_datum(levi)
    idx = sorted(levi)
    lam_r = restrict(truncate(lam2, n - 1), idx)
    nu_r = restrict(truncate(nu2, n - 1), idx)
    bounds = [delta[j] for j in idx]
    pfun = sub.partitions
    total = 0
    for alpha in itertools.product(*(range(b + 1) for b in bounds)):
        count = pfun.count(alpha)
        if count == 0:
            continue
        shift = sub.root_weight(alpha)
        child_lam = TruncatedWeight((lam_r[0] - shift,) + lam_r.tail())
        child_value, child_node = multiplicity(sub, child_lam, nu_r, trace,
                                               twist)
        total += count * child_value
        if trace:
            node.details["contributions"].append(
                {"alpha": list(alpha), "partitions": count, "child": child_value})
            node.children.append(child_node)
    if trace:
        node.value = total
    return total, node
