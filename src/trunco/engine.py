"""Composition multiplicities [M_Lambda : L_N] at any truncation level.

The computation reduces level n to level n-1: twist the block by the
minimal Weyl group element making the top tail component singular along a
standard Levi, apply the n-shifted dot action, drop the (now trivial) top
component, restrict to the Levi, and convolve with the Levi's Kostant
partition function.  Level zero is classical category O, answered by
Kazhdan-Lusztig polynomials at q = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import kl
from .characters import cone, partition_cache
from .trunc_weights import TruncatedWeight, find_twisting_word, n_dot, same_block


@dataclass(frozen=True)
class MultiplicityQuery:
    datum: object
    lam: TruncatedWeight
    nu: TruncatedWeight

    def __post_init__(self):
        _check_rank(self.datum, self.lam, self.nu)
        if self.lam.level != self.nu.level:
            raise ValueError("weights at different truncation levels")


def _check_rank(datum, *weights):
    for weight in weights:
        if any(len(c.coords) != datum.rank for c in weight.components):
            raise ValueError("every component of %s needs %d coordinates"
                             % (weight, datum.rank))


@dataclass
class MultiplicityTrace:
    """Audit record of one query; children cover the recursive calls."""

    kind: str                    # "zero", "base" or "reduce"
    value: int
    details: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def to_dict(self):
        return {
            "kind": self.kind,
            "value": self.value,
            "details": self.details,
            "children": [c.to_dict() for c in self.children],
        }


_VALUE_MEMO = {}


def _memo_key(datum, lam, nu):
    return (datum.key, lam, nu)


def multiplicity(query, trace=False):
    """Return (value, trace) for a MultiplicityQuery.

    With trace=False the second entry is None.
    """
    return _multiplicity(query.datum, query.lam, query.nu, trace)


def _multiplicity(datum, lam, nu, trace):
    key = _memo_key(datum, lam, nu)
    if not trace and key in _VALUE_MEMO:
        return _VALUE_MEMO[key], None
    n = lam.level
    if not same_block(lam, nu):
        value, node = 0, _zero_trace("different blocks")
    elif not datum.dominance_leq(nu[0], lam[0]):
        value, node = 0, _zero_trace("nu_0 not below lambda_0")
    elif n == 0:
        value, node = _base_case(datum, lam[0], nu[0], trace)
    else:
        value, node = _reduce_level(datum, lam, nu, trace)
    _VALUE_MEMO[key] = value
    return value, (node if trace else None)


def _zero_trace(reason):
    return MultiplicityTrace("zero", 0, {"reason": reason})


def _base_case(datum, lam0, nu0, trace):
    value = kl.base_multiplicity(datum, lam0, nu0)
    if not trace:
        return value, None
    details = {"lambda_0": str(lam0), "nu_0": str(nu0)}
    if lam0 != nu0 and datum.dominance_leq(nu0, lam0):
        desc = kl.block_descriptor(datum, lam0)
        x = kl._longest_taking(datum, desc, lam0)
        y = kl._longest_taking(datum, desc, nu0)
        details.update({
            "integral_simples": [list(r) for r in desc.group.simples],
            "antidominant": str(desc.antidominant),
            "x": list(x.word) if x else None,
            "y": list(y.word) if y else None,
        })
        if x is not None and y is not None:
            details["kl"] = str(kl.kl_polynomial(desc.group, y, x))
    return value, MultiplicityTrace("base", value, details)


def _reduce_level(datum, lam, nu, trace):
    n = lam.level
    w, levi = find_twisting_word(datum, lam[n])
    lam2 = n_dot(datum, w, lam)
    nu2 = n_dot(datum, w, nu)
    delta = datum.root_coords(lam2[0] - nu2[0], levi)
    node = MultiplicityTrace("reduce", 0, {
        "n": n,
        "twisting_word": list(w.word),
        "levi": list(levi),
        "lambda_twisted": str(lam2),
        "nu_twisted": str(nu2),
        "contributions": [],
    })
    if delta is None or any(c.denominator != 1 or c < 0 for c in delta):
        node.details["reason"] = "weights not linked through the Levi"
        return 0, node
    sub = datum.sub_datum(levi)
    idx = sorted(levi)
    lam_r = lam2.truncate(n - 1).restrict(idx)
    nu_r = nu2.truncate(n - 1).restrict(idx)
    bounds = [int(delta[j]) for j in idx]
    pfun = partition_cache(sub)
    total = 0
    for alpha in itertools.product(*(range(b + 1) for b in bounds)):
        count = pfun.count(alpha)
        if count == 0:
            continue
        shift = sub.root_weight(alpha)
        child_lam = TruncatedWeight((lam_r[0] - shift,) + lam_r.tail())
        child_value, child_node = _multiplicity(sub, child_lam, nu_r, trace)
        node.details["contributions"].append(
            {"alpha": list(alpha), "partitions": count, "child": child_value})
        if child_node is not None:
            node.children.append(child_node)
        total += count * child_value
    node.value = total
    return total, node


def multiplicity_table(datum, lam, depth, trace=False):
    """All nonzero [M_lam : L_nu] with nu_0 = lambda_0 - beta, height(beta)
    at most depth, and matching tail.  Returns {nu0 Weight: value}."""
    _check_rank(datum, lam)
    out = {}
    for beta in cone(datum.rank, depth):
        nu0 = lam[0] - datum.root_weight(beta)
        nu = TruncatedWeight((nu0,) + lam.tail())
        value, _ = _multiplicity(datum, lam, nu, False)
        if value:
            out[nu0] = value
    return out
