"""Composition multiplicities [M_Lambda : L_N] at any truncation level.

The computation reduces level n to level n-1: twist the block by the
minimal Weyl group element making the top tail component singular along a
standard Levi, apply the n-shifted dot action, drop the (now trivial) top
component, restrict to the Levi, and convolve with the Levi's Kostant
partition function.  Level zero is classical category O, answered by
Kazhdan-Lusztig polynomials at q = 1.  The twisting word, the Levi and the
twisted tail depend only on the block, so the datum keeps one plan per tail.
A query checks nu against lambda once; the recursion then carries the offset
beta = lambda_0 - nu_0 (Z>=0, in simple roots) and twists only lambda_0 and
beta, not at all when the block's twisting word is empty.  A child's
lambda_0 is the Levi part of the twisted lambda_0 minus the Levi's Cartan
matrix times alpha, in integers.  The level-zero leaf answers from lambda_0
and beta (see `kl.leaf_polynomial`); the trace prints that leaf's own
polynomial and descent, and builds nu_0 only to print it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import kl
from .characters import cone
from .root_datum import Weight
from .trunc_weights import (TruncatedWeight, find_twisting_word, n_dot,
                            same_block, shifted_dot)


@dataclass(frozen=True)
class MultiplicityQuery:
    datum: object
    lam: TruncatedWeight
    nu: TruncatedWeight

    def __post_init__(self):
        # the components of a truncated weight share one length
        self.datum.check_rank(self.lam[0], self.nu[0])
        if self.lam.level != self.nu.level:
            raise ValueError("weights at different truncation levels")


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


def multiplicity(query, trace=False):
    """Return (value, trace) for a MultiplicityQuery.

    With trace=False the second entry is None.
    """
    datum, lam, nu = query.datum, query.lam, query.nu
    if not same_block(lam, nu):
        reason = "different blocks"
    elif (beta := datum.dominance_offset(nu[0], lam[0])) is None:
        reason = "nu_0 not below lambda_0"
    else:
        return _multiplicity(datum, lam, beta, trace)
    return 0, (_zero_trace(reason) if trace else None)


def _multiplicity(datum, lam, beta, trace):
    """[M_lam : L_nu] with nu = (lambda_0 - beta, lambda_1, ..., lambda_n)."""
    key = (datum.key, lam, beta)
    if not trace and key in _VALUE_MEMO:
        return _VALUE_MEMO[key], None
    if lam.level == 0:
        value, node = _base_case(datum, lam[0], beta, trace)
    else:
        value, node = _reduce_level(datum, lam, beta, trace)
    _VALUE_MEMO[key] = value
    return value, node


def _zero_trace(reason):
    return MultiplicityTrace("zero", 0, {"reason": reason})


def _base_case(datum, lam0, beta, trace):
    if not trace:
        return kl.offset_multiplicity(datum, lam0, beta), None
    details = {"lambda_0": str(lam0),
               "nu_0": str(lam0 - datum.root_weight(beta))}
    if not any(beta):
        return 1, MultiplicityTrace("base", 1, details)
    desc = kl.block_descriptor(datum, lam0)
    details.update({
        "integral_simples": [list(r) for r in desc.group.simples],
        "antidominant": str(desc.antidominant),
        "x": list(desc.top.word),
        "y": None,
    })
    value = 0
    leaf = kl.leaf_polynomial(datum, lam0, beta)
    if leaf is not None:
        vec, coeffs = leaf
        poly = kl.KLPolynomial(coeffs)
        value = poly(1)
        details.update(y=list(desc.listed_times_w0(vec).word), kl=str(poly))
    return value, MultiplicityTrace("base", value, details)


def _block_plan(datum, lam):
    """The part of a level reduction that depends only on the block of lam:
    (twisting word w, J ascending (the Levi of the twisted top component),
    twisted tail w(lambda_1), ..., w(lambda_n), the Levi's datum,
    w(lambda_1), ..., w(lambda_(n-1)) restricted to J).

    The datum keeps one plan per tail, built on first use from one twisting
    search per top component.
    """
    tail = lam.tail()
    plan = datum._plans.get(tail)
    if plan is None:
        twist = datum._twists.get(tail[-1])
        if twist is None:
            twist = datum._twists[tail[-1]] = find_twisting_word(datum, tail[-1])
        word, levi = twist
        twisted = n_dot(datum, word, lam)
        plan = datum._plans[tail] = (
            word, levi, twisted.tail(), datum.sub_datum(levi),
            twisted.truncate(lam.level - 1).restrict(levi).tail())
    return plan


def _reduce_level(datum, lam, beta, trace):
    n = lam.level
    word, levi, tail, sub, sub_tail = _block_plan(datum, lam)
    if word:
        lam2_0 = shifted_dot(datum, word, lam[0], n)
        # the shifts cancel: lam2_0 - nu2_0 = w(lam_0 - nu_0) = w(beta)
        delta = datum.weyl_group().act_word_root(word, beta)
    else:
        lam2_0, delta = lam[0], beta
    node = MultiplicityTrace("reduce", 0, {
        "n": n,
        "twisting_word": list(word),
        "levi": list(levi),
        "lambda_twisted": str(TruncatedWeight((lam2_0,) + tail)),
        "nu_twisted": str(TruncatedWeight(
            (lam2_0 - datum.root_weight(delta),) + tail)),
        "contributions": [],
    }) if trace else None
    # linked through the Levi: w(beta) is a Z>=0 combination of J
    bounds = [delta[j] for j in levi]
    if any(c < 0 for c in delta) or sum(bounds) != sum(delta):
        if trace:
            node.details["reason"] = "weights not linked through the Levi"
        return 0, node
    lam_r0 = [lam2_0.coords[j] for j in levi]
    pfun = sub.partitions
    total = 0
    for alpha in itertools.product(*(range(b + 1) for b in bounds)):
        count = pfun.count(alpha)
        if count == 0:
            continue
        # lambda_0 of the child: lam_r0 - alpha, alpha in the Levi's roots
        child_lam = TruncatedWeight((Weight(tuple(
            c - sum(a * x for a, x in zip(row, alpha))
            for c, row in zip(lam_r0, sub.cartan))),) + sub_tail)
        child_value, child_node = _multiplicity(
            sub, child_lam, tuple(b - a for b, a in zip(bounds, alpha)), trace)
        total += count * child_value
        if trace:
            node.details["contributions"].append(
                {"alpha": list(alpha), "partitions": count, "child": child_value})
            node.children.append(child_node)
    if trace:
        node.value = total
    return total, node


def multiplicity_table(datum, lam, depth):
    """All nonzero [M_lam : L_nu] with nu_0 = lambda_0 - beta, height(beta)
    at most depth, and matching tail.  Returns {nu0 Weight: value}."""
    datum.check_rank(lam[0])
    out = {}
    for beta in cone(datum.rank, depth):
        value, _ = _multiplicity(datum, lam, beta, False)
        if value:
            out[lam[0] - datum.root_weight(beta)] = value
    return out
