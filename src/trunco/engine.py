"""Composition multiplicities [M_Lambda : L_N] at any truncation level.

The computation reduces level n to level n-1: twist the block by a Weyl
group element making the top tail component singular along a standard Levi
(the walk toward the dominant chamber of `find_twisting_word`; the value
does not depend on which such element), apply the n-shifted dot action,
drop the (now trivial) top component, restrict to the Levi, and convolve
with the Levi's Kostant partition function.  Tail components under the
top that restrict to zero on the Levi twist by e onto the whole Levi, so
a plan folds such a run into its level: one convolution with the k-fold
partition function, traced as one node with `folded_levels` k.  Level
zero is classical category O, answered by Kazhdan-Lusztig polynomials
P_{y, y'_max} at q = 1, in the dominant convention of `kl`.  The datum
keeps one plan per block tail, made from the tail alone: the twisting
word, the Levi, the twisted tail, the block's values by (lambda_0, beta),
and the plan of the Levi's block.  A query checks nu against lambda once,
in integers (`RootDatum.dominance_offset`); the recursion then carries
(plan, lambda_0, beta) in plain tuples, beta = lambda_0 - nu_0 in simple
roots, twists only lambda_0 and beta (not at all for an empty twisting
word), and forms a child's lambda_0 as the Levi part of the twisted
lambda_0 minus the Levi's Cartan matrix times alpha.  The datum keeps its
level-zero values by (lambda_0, beta) too and builds a Weight only for a
new one (see `kl.leaf_polynomial`).  The trace takes the same path past
the memos and builds weights only to print them.  A traced leaf prints
the dominant point, the reduced words of y and y'_max (None outside the
block) and P_{y, y'_max}, and lists no group.
"""

from __future__ import annotations

import itertools

from . import kl
from .characters import cone
from .root_datum import Frozen, Weight
from .trunc_weights import TruncatedWeight, find_twisting_word, same_block


class MultiplicityQuery(Frozen):
    """[M_lam : L_nu] over a RootDatum, lam and nu TruncatedWeights."""

    def __init__(self, datum, lam, nu):
        # the components of a truncated weight share one length
        datum.check_rank(lam[0], nu[0])
        if lam.level != nu.level:
            raise ValueError("weights at different truncation levels")
        for name, value in (("datum", datum), ("lam", lam), ("nu", nu)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.datum, self.lam, self.nu)
                    == (other.datum, other.lam, other.nu))
        return NotImplemented

    def __hash__(self):
        return hash((self.datum, self.lam, self.nu))


class MultiplicityTrace:
    """Audit record of one query; children cover the recursive calls."""

    def __init__(self, kind, value, details=None, children=None):
        self.kind = kind            # "zero", "base" or "reduce"
        self.value = value
        self.details = {} if details is None else details
        self.children = [] if children is None else children

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.kind, self.value, self.details, self.children)
                    == (other.kind, other.value, other.details, other.children))
        return NotImplemented

    def to_dict(self):
        return {"kind": self.kind, "value": self.value, "details": self.details,
                "children": [c.to_dict() for c in self.children]}


def multiplicity(query, trace=False):
    """(value, trace node) for a MultiplicityQuery; the node is None
    unless trace is set."""
    datum, lam, nu = query.datum, query.lam, query.nu
    if not same_block(lam, nu):
        reason = "different blocks"
    elif (beta := datum.dominance_offset(nu[0], lam[0])) is None:
        reason = "nu_0 not below lambda_0"
    else:
        return _value(datum, _block_plan(datum, lam.tail()), lam[0].coords,
                      beta, trace)
    return 0, (_zero_trace(reason) if trace else None)


def _zero_trace(reason):
    return MultiplicityTrace("zero", 0, {"reason": reason})


def _value(datum, plan, lam0, beta, trace):
    """[M_lam : L_nu] for lam = (lam0, the plan's tail), lam0 a coordinate
    tuple, and nu_0 = lam0 - beta: reduced through the plan, or a
    level-zero leaf of datum when plan is None."""
    if plan is not None:
        return _reduce(plan, lam0, beta, trace)
    if not trace:
        value = datum._leaf_values.get((lam0, beta))
        if value is None:
            value = datum._leaf_values[lam0, beta] = kl.offset_multiplicity(
                datum, Weight(lam0), beta)
        return value, None
    lam0 = Weight(lam0)
    details = {"lambda_0": str(lam0),
               "nu_0": str(lam0 - datum.root_weight(beta))}
    if not any(beta):
        return 1, MultiplicityTrace("base", 1, details)
    desc = kl.block_descriptor(datum, lam0)
    details.update(integral_simples=[list(r) for r in desc.simples],
                   dominant=list(desc.dominant), y=list(desc.word),
                   y_max=None)
    value, leaf = 0, kl.leaf_polynomial(datum, lam0, beta)
    if leaf is not None:
        poly = kl.KLPolynomial(leaf[1])
        value = poly(1)
        details.update(y_max=list(leaf[0]), kl=str(poly))
    return value, MultiplicityTrace("base", value, details)


class _BlockPlan:
    """What a level reduction of the block with a given tail of length n
    needs: the twisting word w of its top component, J ascending (the Levi
    of the twisted top component), the twisted tail, the Levi's datum and
    Cartan rows, and `sub_tail`, the twisted tail below the top restricted
    to J less its trailing zeros, which fold into this level: `partitions`
    is J's `folds`-fold partition function.  All of it comes from the tail
    alone.  `memo` holds the block's values by (lambda_0, beta), and
    `child` the child block's plan from its first use (None when
    `sub_tail` is empty)."""

    __slots__ = ("datum", "level", "word", "levi", "tail", "sub", "cartan",
                 "sub_tail", "folds", "partitions", "memo", "child")

    def __init__(self, datum, tail):
        self.word, self.levi = find_twisting_word(datum, tail[-1])
        act = datum.weyl_group().act_word
        self.datum, self.level = datum, len(tail)
        self.tail = tuple(act(self.word, mu) for mu in tail)
        self.sub = datum.sub_datum(self.levi)
        self.cartan, self.memo, self.child = self.sub.cartan, {}, None
        sub_tail = [Weight(tuple(mu.coords[j] for j in self.levi))
                    for mu in self.tail[:-1]]
        while sub_tail and not any(sub_tail[-1].coords):
            sub_tail.pop()
        self.sub_tail, self.folds = tuple(sub_tail), self.level - len(sub_tail)
        self.partitions = self.sub.fold_partitions(self.folds)


def _block_plan(datum, tail):
    """The datum's plan for the block with this tail, made once; None for
    the empty tail of level 0."""
    plan = datum._plans.get(tail)
    if plan is None and tail:
        plan = datum._plans[tail] = _BlockPlan(datum, tail)
    return plan


def _reduce(plan, lam0, beta, trace):
    key = (lam0, beta)
    if not trace and (value := plan.memo.get(key)) is not None:
        return value, None
    datum, n, word, levi = plan.datum, plan.level, plan.word, plan.levi
    lam2_0, delta = lam0, beta
    if word:
        # `shifted_dot`, w(lambda_0 + (n+1) rho) - (n+1) rho; the shifts
        # cancel in the offset: lam2_0 - nu2_0 = w(lambda_0 - nu_0) = w(beta)
        group = datum.weyl_group()
        vec = tuple(c + n + 1 for c in lam0)
        for i in reversed(word):
            vec = group.reflect(i, vec)
        lam2_0 = tuple(c - n - 1 for c in vec)
        delta = group.act_word_root(word, beta)
    node = None
    if trace:
        twisted = Weight(lam2_0)
        node = MultiplicityTrace("reduce", 0, {
            "n": n, "twisting_word": list(word), "levi": list(levi),
            **({"folded_levels": plan.folds} if plan.folds > 1 else {}),
            "lambda_twisted": str(TruncatedWeight((twisted,) + plan.tail)),
            "nu_twisted": str(TruncatedWeight(
                (twisted - datum.root_weight(delta),) + plan.tail)),
            "contributions": []})
    # linked through the Levi: w(beta) is a Z>=0 combination of J
    bounds = [delta[j] for j in levi]
    if any(c < 0 for c in delta) or sum(bounds) != sum(delta):
        if trace:
            node.details["reason"] = "weights not linked through the Levi"
        plan.memo[key] = 0
        return 0, node
    if plan.child is None and plan.sub_tail:
        plan.child = _block_plan(plan.sub, plan.sub_tail)
    sub, child, cartan, total = plan.sub, plan.child, plan.cartan, 0
    partitions, lam_r0 = plan.partitions, [lam2_0[j] for j in levi]
    for alpha in itertools.product(*(range(b + 1) for b in bounds)):
        count = partitions.count(alpha)
        if count == 0:
            continue
        # lambda_0 of the child: lam_r0 - alpha, alpha in the Levi's roots
        child_value, child_node = _value(sub, child, tuple(
            c - sum(a * x for a, x in zip(row, alpha))
            for c, row in zip(lam_r0, cartan)),
            tuple(b - a for b, a in zip(bounds, alpha)), trace)
        total += count * child_value
        if trace:
            node.details["contributions"].append(
                {"alpha": list(alpha), "partitions": count, "child": child_value})
            node.children.append(child_node)
    if trace:
        node.value = total
    plan.memo[key] = total
    return total, node


def multiplicity_table(datum, lam, depth):
    """All nonzero [M_lam : L_nu] with nu_0 = lambda_0 - beta, height(beta)
    at most depth, and matching tail.  Returns {nu0 Weight: value}."""
    datum.check_rank(lam[0])
    plan, out = _block_plan(datum, lam.tail()), {}
    for beta in cone(datum.rank, depth):
        value, _ = _value(datum, plan, lam[0].coords, beta, False)
        if value:
            out[lam[0] - datum.root_weight(beta)] = value
    return out
