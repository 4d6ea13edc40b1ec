import collections
import importlib.util
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trunco import engine, kl, oracle
from trunco.characters import cone, verma_character
from trunco.cli import engine_against_oracle
from trunco.engine import MultiplicityQuery, multiplicity, multiplicity_table
from trunco.root_datum import (ReflectionGroup, RootDatum, Weight,
                               build_root_datum)
from trunco.trunc_weights import TruncatedWeight, find_twisting_word, n_dot

import engine_reference
from levi_reference import twisting_word
from weyl_ops import from_word


def _tw(*coords):
    return TruncatedWeight([Weight(c) for c in coords])


def _value(datum, lam, nu):
    value, _ = multiplicity(MultiplicityQuery(datum, lam, nu))
    return value


def test_self_multiplicity_is_one():
    a2 = build_root_datum("A2")
    for lam in (_tw((0, 0)), _tw((1, 2), (0, 1)), _tw((3, 0), (1, 1), (0, 2))):
        assert _value(a2, lam, lam) == 1


def test_different_tails_give_zero():
    a1 = build_root_datum("A1")
    lam = _tw((2,), (0,))
    nu = _tw((0,), (1,))
    assert _value(a1, lam, nu) == 0


def test_mismatched_levels_rejected():
    a1 = build_root_datum("A1")
    with pytest.raises(ValueError):
        multiplicity(MultiplicityQuery(a1, _tw((2,), (0,)), _tw((2,))))


def test_rank_mismatches_rejected():
    a2 = build_root_datum("A2")
    lam = _tw((1, 0), (0, 1))
    with pytest.raises(ValueError):
        MultiplicityQuery(a2, lam, _tw((1, 0, 0), (0, 1)))
    with pytest.raises(ValueError):
        MultiplicityQuery(a2, _tw((1,), (0, 1)), lam)
    with pytest.raises(ValueError):
        multiplicity_table(a2, _tw((1,), (0, 1)), 2)


def test_regular_tail_means_simple_verma():
    a1 = build_root_datum("A1")
    alpha = a1.root_weight((1,))
    for tail in ((1,), (Fraction(1, 2),), (-3,)):
        lam = _tw((4,), tail)
        for k in range(1, 5):
            assert _value(a1, lam, _tw((4,) , tail) ) == 1
            nu = TruncatedWeight((lam[0] - k * alpha,) + lam.tail())
            assert _value(a1, lam, nu) == 0


def test_takiff_sl2_table():
    a1 = build_root_datum("A1")
    alpha = a1.root_weight((1,))
    # depth-6 multiplicity pattern of the nilpotent-tail block at m = 3,
    # frozen from the module oracle
    lam = _tw((3,), (0,))
    expected = [1, 1, 1, 2, 2, 1, 1]
    for k, want in enumerate(expected):
        nu = TruncatedWeight((lam[0] - k * alpha,) + lam.tail())
        assert _value(a1, lam, nu) == want, k
    # the classical dot reflection always carries multiplicity two
    for m in range(4):
        lam = _tw((m,), (0,))
        nu = TruncatedWeight((lam[0] - (m + 1) * alpha,) + lam.tail())
        assert _value(a1, lam, nu) == 2


def test_multiplicity_table_depth_zero():
    a2 = build_root_datum("A2")
    lam = _tw((1, 1), (2, 2))
    assert multiplicity_table(a2, lam, 0) == {Weight((1, 1)): 1}


def test_multiplicity_table_regular_tail():
    a1 = build_root_datum("A1")
    lam = _tw((3,), (2,))
    assert multiplicity_table(a1, lam, 6) == {Weight((3,)): 1}


def test_twisting_invariance_at_top_level():
    a2 = build_root_datum("A2")
    group = a2.weyl_group()
    lam = _tw((2, 1), (1, -1))
    nu = _tw((0, 0), (1, -1))
    base = _value(a2, lam, nu)
    for i in range(2):
        if a2.pairing(lam[1], a2.simple_root(i)) == 0:
            continue
        s = from_word(group, (i,))
        assert _value(a2, n_dot(a2, s.word, lam), n_dot(a2, s.word, nu)) == base


def test_trace_reduce_node_is_self_consistent():
    a2 = build_root_datum("A2")
    lam = _tw((1, 0), (1, -1))
    nu = _tw((Fraction(-3), Fraction(2)), (1, -1))
    value, trace = multiplicity(MultiplicityQuery(a2, lam, nu), trace=True)
    assert trace.value == value

    def check(node):
        if node.kind == "reduce":
            total = sum(c["partitions"] * c["child"]
                        for c in node.details["contributions"])
            assert total == node.value
        for child in node.children:
            check(child)

    check(trace)
    # serializes without complaint
    assert trace.to_dict()["value"] == value


def test_trace_base_case_reports_kl_data():
    a1 = build_root_datum("A1")
    lam = _tw((2,))
    nu = _tw((-4,))
    value, trace = multiplicity(MultiplicityQuery(a1, lam, nu), trace=True)
    assert value == 1
    assert trace.kind == "base"
    assert trace.details["kl"] == "1"


def test_nonintegral_base_weights_flow_through():
    a2 = build_root_datum("A2")
    lam = _tw((Fraction(1, 2), 1), (0, 1))
    alpha2 = a2.root_weight((0, 1))
    nu = TruncatedWeight((lam[0] - 2 * alpha2,) + lam.tail())
    value = _value(a2, lam, nu)
    assert value in (0, 1)
    # the sl2 line through alpha_2 is integral, so the dot partner appears
    dot = TruncatedWeight((lam[0] - 2 * alpha2,) + lam.tail())
    assert _value(a2, lam, dot) == value


def test_levi_unlinked_weights_vanish():
    a2 = build_root_datum("A2")
    lam = _tw((2, 2), (0, 1))     # Levi is the alpha_1 line
    alpha2 = a2.root_weight((0, 1))
    nu = TruncatedWeight((lam[0] - alpha2,) + lam.tail())
    assert _value(a2, lam, nu) == 0


def test_value_memoization_is_stable():
    a1 = build_root_datum("A1")
    lam = _tw((2,), (0,))
    alpha = a1.root_weight((1,))
    nu = TruncatedWeight((lam[0] - 2 * alpha,) + lam.tail())
    first = _value(a1, lam, nu)
    assert _value(a1, lam, nu) == first == 2


# lambda_0 coordinates: integral, singular (-1 pairs lambda_0 + rho to 0)
# and non-integral
_LAM0_COORDS = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2),
                Fraction(1, 3), Fraction(2, 3))


@st.composite
def _oracle_blocks(draw):
    """(type, lambda) over rank-2 types at levels 0-2, and an oracle depth
    kept at 3 on level 2, where the oracle's module grows fastest."""
    type_str = draw(st.sampled_from(("B2", "G2", "A1xA1")))
    level = draw(st.integers(0, 2))
    depth = draw(st.integers(1, 3 if level == 2 else 4))
    lam0 = tuple(draw(st.sampled_from(_LAM0_COORDS)) for _ in range(2))
    tail = [tuple(draw(st.integers(-1, 2)) for _ in range(2))
            for _ in range(level)]
    return type_str, _tw(lam0, *tail), depth


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_oracle_blocks())
@example(("B2", _tw((Fraction(1, 2), -1), (0, 1)), 4))
@example(("G2", _tw((-1, 0), (0, 0), (1, 0)), 3))
@example(("A1xA1", _tw((Fraction(1, 3), -1), (0, 2)), 4))
def test_engine_matches_oracle_on_random_blocks(case):
    type_str, lam, depth = case
    datum = build_root_datum(type_str)
    for beta, _, value, expected in engine_against_oracle(datum, lam, depth):
        assert value == expected, (type_str, lam, beta)


# rank 3-4 blocks and level 2: integral, singular and non-integral lambda_0,
# zero and nonzero tails
_ORACLE_GATE = (
    ("A3", _tw((1, 0, 1), (0, 0, 0)), 5),
    ("C3", _tw((0, 0, 1), (0, 0, 0)), 5),
    ("B3", _tw((0, 1, 0), (1, 0, 0)), 4),
    ("A4", _tw((Fraction(1, 2), 0, 0, 1), (0, 0, 0, 0)), 4),
    ("D4", _tw((1, 0, 0, 0), (0, 1, 0, 0)), 4),
    ("F4", _tw((0, 0, 0, 0), (0, 0, 0, 0)), 3),
    ("A2", _tw((1, Fraction(1, 2)), (0, 0), (1, 0)), 5),
    ("G2", _tw((Fraction(1, 2), 1), (0, Fraction(1, 2))), 5),
    ("A3", _tw((1, -1, 0), (0, 0, 0), (1, 0, 0)), 4),
    ("B3", _tw((0, -1, 1), (0, 0, 0), (0, 0, 0)), 3),
    ("C3", _tw((Fraction(1, 2), 0, 1), (1, 0, 0)), 4),
    ("B3", _tw((1, Fraction(1, 2), 0), (0, 0, 1)), 4),
    ("C3", _tw((0, 1, -1), (0, 0, 0), (0, 1, 0)), 3),
    ("D4", _tw((0, Fraction(1, 2), 0, 1), (0, 0, 0, 0)), 3),
    ("F4", _tw((1, 0, 0, -1), (0, 0, 1, 0)), 3),
    ("A4", _tw((0, -1, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)), 3),
    ("A3", _tw((Fraction(1, 3), 0, Fraction(2, 3)), (1, -1, 0)), 5),
    ("B3", _tw((0, 0, 0), (1, 0, 0), (0, 0, 0)), 4),
    # nonzero tails of rank 5-8, which twist by words of length 6-58
    ("D5", _tw((-1, -1, 1, -1, 0), (-1, -2, 0, 2, -3)), 2),
    ("E6", _tw((-1, 1, 0, -1, 0, 1), (1, 3, -2, -1, 0, -2)), 2),
    ("E7", _tw((0, -1, 1, 2, 1, 2, 1), (-1, -1, -2, 3, -2, 2, 3)), 2),
    ("E8", _tw((Fraction(1, 2), -1, 2, -1, 0, 1, 0, 0),
               (-1, 2, 0, 2, -1, -3, 0, -1)), 2),
    ("E7", _tw((0, -1, 1, 2, 1, 2, 1), (1, 0, -1, 0, 0, 1, 0),
               (-1, -1, -2, 3, -2, 2, 3)), 2),
    ("E6", _tw((Fraction(1, 2), 2, 2, 1, 2, 2), (0, 1, 0, 0, -1, 0),
               (-3, 1, 2, -3, 1, -3)), 2),
    # level-0 and level-2 blocks whose leaves reach P_{y, y'_max} != 1:
    # regular A3 from height 8 (P_{e, s2 s1 s3 s2} = 1 + q), singular
    # dominant Vermas from height 3
    ("A3", _tw((0, 0, 0)), 8),
    ("A3", _tw((-1, 0, -1)), 3),
    ("D4", _tw((1, 0, -1, -1)), 3),
    ("B3", _tw((0, -1, 0)), 8),
    ("C3", _tw((0, -1, 0)), 7),
    ("D4", _tw((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), 6),
    # blocks the engine folds: three zero levels in one convolution, and a
    # nonzero lower component that restricts to 0 on the Levi (0, 1) of
    # the twisted top
    ("A3", _tw((1, -1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)), 6),
    ("A3", _tw((1, 0, -1), (-1, 1, 0), (1, -1, 0)), 5),
)


@pytest.mark.parametrize("type_str, lam, depth", _ORACLE_GATE,
                         ids=["%s %s" % (t, lam) for t, lam, _ in _ORACLE_GATE])
def test_engine_matches_oracle_on_fixed_blocks(type_str, lam, depth):
    wrong = [(beta, value, expected) for beta, _, value, expected in
             engine_against_oracle(build_root_datum(type_str), lam, depth)
             if value != expected]
    assert wrong == []


def _oracle_verify_blocks():
    """The blocks of the benchmark's oracle-verify workload, as (type,
    lambda, depth)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(type_str, _tw(*(tuple(map(Fraction, c)) for c in comps)), depth)
            for type_str, comps, depth in workloads.ORACLE_BLOCKS]


def test_walked_weight_spaces_count_the_verma_character():
    # the oracle takes its Verma character from the PBW monomials its block
    # lists, and the engine's folds convolve the same partition functions
    # `verma_character` reads, so the two counts check each other
    blocks = list(_ORACLE_GATE) + _oracle_verify_blocks()
    assert len(blocks) == len(_ORACLE_GATE) + 4
    for type_str, lam, depth in blocks:
        datum = build_root_datum(type_str)
        walked = oracle._Block(datum, lam.tail(), depth).window(depth)
        assert {beta: len(space) for beta, space in walked.items()} == \
            verma_character(datum, lam, depth).table, (type_str, str(lam))


# (type, depth) of the dominant regular integral lambda_0 = 0 at level 0
_BGG_BLOCKS = (("A3", 10), ("A4", 8), ("D4", 8), ("E6", 9), ("E7", 8),
               ("E8", 8))


@pytest.mark.parametrize("type_str, depth", _BGG_BLOCKS)
def test_bgg_resolution_inverts_the_engine_tables(type_str, depth):
    # The BGG resolution of L(0) gives ch L(0) = sum over w of (-1)^l(w)
    # ch M(w . 0) (Bernstein-Gelfand-Gelfand 1975; Humphreys, BGG Category
    # O, ch. 6): row 0 of the inverse of [M_mu : L_nu] over the linked
    # weights is (-1)^l(w) at w . 0 and 0 elsewhere.  Neither the oracle
    # nor a KL formula enters.  The matrix is unitriangular in the
    # dominance order, and each mu between nu and 0 lies no deeper than
    # nu, so the linked weights to the depth carry the row to the depth.
    datum = build_root_datum(type_str)
    group, zero = datum.weyl_group(), Weight((0,) * datum.rank)
    # w . 0 + rho = w(rho), by the offset 0 - w . 0 in simple roots; a step
    # in s_i with entry c > 0 lowers by c alpha_i and lengthens w by one
    sign, layer, length = {}, {(0,) * datum.rank: (1,) * datum.rank}, 0
    while layer:
        step = {}
        for beta, vec in layer.items():
            sign[zero - datum.root_weight(beta)] = (-1) ** length
            for i, c in enumerate(vec):
                below = beta[:i] + (beta[i] + c,) + beta[i + 1:]
                if c > 0 and sum(below) <= depth:
                    step[below] = group.reflect(i, vec)
        layer, length = step, length + 1
    linked = sorted(sign, key=lambda mu: sum(datum.root_coords(zero - mu)))
    tables = {mu: multiplicity_table(datum, TruncatedWeight([mu]), depth - sum(
        datum.root_coords(zero - mu))) for mu in linked}
    assert all(set(t) <= set(sign) for t in tables.values()), type_str
    # sum over mu of row[mu] [M_mu : L_nu] = [nu == 0], deeper nu later
    row = {}
    for nu in linked:
        row[nu] = int(nu == zero) - sum(row[mu] * tables[mu].get(nu, 0)
                                        for mu in row)
    assert row == sign, type_str


def _refuse_listing(group):
    raise AssertionError("listed a group of %d generators" % group.num_gens)


@pytest.mark.parametrize("type_str", ["D5", "F4", "E6", "E7", "E8", "A9", "B7"])
def test_zero_tail_table_of_a_large_group_matches_oracle(type_str, monkeypatch):
    # the KL layer answers from short intervals of elements named by their
    # vectors, so the engine reaches groups far too large to list
    datum = build_root_datum(type_str)
    zero = Weight((0,) * datum.rank)
    lam = TruncatedWeight([zero, zero])
    dec = oracle.verma_decomposition(datum, lam, 2)
    group = kl.integral_weyl_group(datum, zero)
    # criterion 6 lists W(F4) earlier in a full run
    unlisted = group._elements is None
    monkeypatch.setattr(ReflectionGroup, "_materialize", _refuse_listing)
    assert multiplicity_table(datum, lam, 2) == {
        lam[0] - datum.root_weight(beta): v for beta, v in dec.items() if v}
    assert (group._elements is None) == unlisted


def test_an_e7_tail_twists_by_a_walk_not_a_search_over_w(monkeypatch):
    # the twist reflects one vector toward the dominant chamber, so it
    # neither lists W(E7) nor interns an element of it, though the shortest
    # twist of this tail has length 24 and 520648 elements are shorter
    datum = RootDatum(build_root_datum("E7").cartan)    # not interned
    lam = _tw((0,) * 7, (-2, 1, 1, -2, 3, -3, 3))
    dec = oracle.verma_decomposition(datum, lam, 3)
    monkeypatch.setattr(ReflectionGroup, "_materialize", _refuse_listing)
    assert multiplicity_table(datum, lam, 3) == {
        lam[0] - datum.root_weight(beta): v for beta, v in dec.items() if v}
    assert len(datum.weyl_group()._vecs) == 1


@pytest.mark.parametrize("type_str", ["B7", "D7", "E7", "E8", "A9"])
def test_equal_weights_answer_without_listing_w(type_str):
    # a zero tail twists by e, so nothing lists the Weyl group
    datum = build_root_datum(type_str)
    zero = Weight((0,) * datum.rank)
    lam = TruncatedWeight([zero, zero])
    assert _value(datum, lam, lam) == 1
    assert datum.weyl_group()._elements is None


def _cold():
    """Empty every interned datum's per-block tables: its block plans (and
    with them their values), its level-zero values, its descriptors and its
    integral subsystems."""
    for datum in RootDatum._interned.values():
        datum._plans.clear()
        datum._leaf_values.clear()
        datum._descriptors.clear()
        datum._subsystems.clear()


def _memo_size():
    """Values kept on the interned data, in block plans and at level zero."""
    return sum(len(datum._leaf_values)
               + sum(len(plan.memo) for plan in datum._plans.values())
               for datum in RootDatum._interned.values())


def _plan_blocks(type_str, seed):
    """Seeded blocks at levels 1 and 2 with an integral, a singular (a -1
    entry makes lambda_0 + rho singular) and a non-integral lambda_0."""
    datum = build_root_datum(type_str)
    rng = random.Random(seed)
    blocks = []
    for level in (1, 2):
        for kind in ("integral", "singular", "non-integral"):
            lam0 = [rng.randint(-2, 2) for _ in range(datum.rank)]
            if kind == "singular":
                lam0[rng.randrange(datum.rank)] = -1
            elif kind == "non-integral":
                lam0[rng.randrange(datum.rank)] = Fraction(rng.choice((1, 2)), 3)
            tail = [tuple(rng.randint(-1, 2) for _ in range(datum.rank))
                    for _ in range(level)]
            blocks.append(_tw(lam0, *tail))
    return datum, blocks


# fixed blocks in place of seeded ones: the benchmark's level-2 zero-tail
# block, whose two levels the engine folds into one
_FIXED_PLAN_BLOCKS = {("A2", 6): [((1, 1), (0, 0), (0, 0))]}


def _fold_reference(node, levels):
    """{alpha: (count, node)} over `levels` reduce levels of a reference
    trace: the per-level partition counts multiplied along each path of
    contributions and summed over the paths whose alphas add up to alpha,
    with the node every such path ends in."""
    out = {(0,) * len(node["details"]["levi"]): (1, node)}
    for _ in range(levels):
        step = {}
        for gamma, (count, parent) in out.items():
            for c, child in zip(parent["details"]["contributions"],
                                parent["children"]):
                alpha = tuple(g + a for g, a in zip(gamma, c["alpha"]))
                total, end = step.get(alpha, (0, child))
                assert end == child, alpha
                step[alpha] = (total + count * c["partitions"], child)
        out = step
    return out


def _same_trace(got, want):
    """Check an engine trace against the unfolded reference's, node for
    node, except that a node with `folded_levels` k stands for k reference
    levels: its counts are the convolution of theirs along the paths, and
    its children are the nodes k levels down.  Returns the number of
    folded nodes."""
    assert got["kind"] == want["kind"] and got["value"] == want["value"]
    if got["kind"] != "reduce":
        assert got == want
        return 0
    k = got["details"].get("folded_levels", 1)
    skip = ("folded_levels", "contributions")
    assert ({key: v for key, v in got["details"].items() if key not in skip}
            == {key: v for key, v in want["details"].items() if key != skip[1]})
    contributions = got["details"]["contributions"]
    if k == 1:
        assert contributions == want["details"]["contributions"]
    paths = _fold_reference(want, k)
    assert {tuple(c["alpha"]): c["partitions"] for c in contributions} == {
        alpha: count for alpha, (count, _) in paths.items()}
    folded = int(k > 1)
    for c, child in zip(contributions, got["children"]):
        end = paths[tuple(c["alpha"])][1]
        assert c["child"] == end["value"]
        folded += _same_trace(child, end)
    return folded


@pytest.mark.parametrize("type_str, depth", [
    ("A2", 3), ("B2", 3), ("G2", 3), ("A1xA1", 3), ("A3", 2), ("B3", 2),
    ("A2", 6)])
def test_block_plans_match_the_per_query_reduction(type_str, depth):
    fixed = _FIXED_PLAN_BLOCKS.get((type_str, depth))
    if fixed is None:
        datum, blocks = _plan_blocks(type_str, depth + len(type_str))
    else:
        datum, blocks = build_root_datum(type_str), [_tw(*c) for c in fixed]
    folded = 0
    for lam in blocks:
        nus = [TruncatedWeight((lam[0] - datum.root_weight(beta),) + lam.tail())
               for beta in cone(datum.rank, depth)]
        # cold memos on each path, then warm ones
        for cold, trace in ((True, False), (True, True),
                            (False, False), (False, True)):
            if cold:
                _cold()
            for nu in nus:
                got, got_node = multiplicity(
                    MultiplicityQuery(datum, lam, nu), trace)
                want, want_node = engine_reference.multiplicity(
                    datum, lam, nu, trace)
                assert got == want, (type_str, str(lam), str(nu), cold, trace)
                if trace:
                    folded += _same_trace(got_node.to_dict(),
                                          want_node.to_dict())
    # the fixed block and the seeded A1xA1, A3 and B3 blocks meet folds
    assert folded or type_str in ("A2", "B2", "G2") and depth == 3


@pytest.mark.parametrize("type_str, depth", [
    ("A2", 3), ("B2", 3), ("G2", 3), ("A1xA1", 3), ("A3", 2), ("B3", 2)])
def test_values_do_not_depend_on_the_twisting_word(type_str, depth):
    # the engine twists by the walk toward the dominant chamber; a reduction
    # twisted by the minimal-length word of the listed group gives the same
    # values, as any w making the top component standard must
    datum, blocks = _plan_blocks(type_str, depth + len(type_str))
    for lam in blocks:
        for beta in cone(datum.rank, depth):
            nu = TruncatedWeight((lam[0] - datum.root_weight(beta),)
                                 + lam.tail())
            want, _ = engine_reference.multiplicity(
                datum, lam, nu, False, twist=twisting_word)
            assert _value(datum, lam, nu) == want, \
                (type_str, str(lam), str(nu))


def test_one_twisting_search_per_tail(monkeypatch):
    calls = collections.Counter()
    search = engine.find_twisting_word

    def counted(datum, mu):
        calls[datum.key, mu] += 1
        return search(datum, mu)

    monkeypatch.setattr(engine, "find_twisting_word", counted)
    _cold()
    a2 = build_root_datum("A2")
    # three distinct tails end in (1,-1), and two lambdas share one of
    # them
    lams = [_tw((1, 0), (0, 0), (1, -1)), _tw((0, 1), (1, 0), (1, -1)),
            _tw((2, 0), (1, 0), (1, -1)), _tw((1, 1), (1, -1)),
            _tw((0, 0), (0, 1))]
    for _ in range(2):
        for lam in lams:
            multiplicity_table(a2, lam, 3)
    # each plan made one search on its top component, and the second pass
    # made none
    plans = [(datum.key, tail) for datum in RootDatum._interned.values()
             for tail in datum._plans]
    assert calls == collections.Counter((key, tail[-1]) for key, tail in plans)
    assert calls[a2.key, Weight((1, -1))] == 3
    # the Levi tails repeat: the one plan past the query tails is the A1
    # tail (1) below ((1,0),(1,-1)), which two lambdas reach; the Levi tail
    # (0) below ((0,0),(1,-1)) folds into its parent and makes no plan
    tails = {(a2.key, lam.tail()) for lam in lams}
    levi_tails = set(plans) - tails
    assert len(plans) > len(tails)
    assert levi_tails == {(build_root_datum("A1").key, (Weight((1,)),))}


def test_one_offset_check_per_query(monkeypatch):
    # the recursion carries beta = lambda_0 - nu_0; only the public query
    # checks nu against lambda, and a table passes each beta straight in
    calls = collections.Counter()
    check = RootDatum.dominance_offset

    def counted(self, lower, upper):
        calls[sys._getframe(1).f_code.co_filename == engine.__file__] += 1
        return check(self, lower, upper)

    monkeypatch.setattr(RootDatum, "dominance_offset", counted)
    _cold()
    a2 = build_root_datum("A2")
    lam = _tw((1, 0), (0, 0), (1, -1))
    nus = [TruncatedWeight((lam[0] - a2.root_weight(beta),) + lam.tail())
           for beta in cone(a2.rank, 3)]
    values = [_value(a2, lam, nu) for nu in nus]
    assert calls[True] == len(nus)
    # the children below the queries were solved without a check
    assert _memo_size() > len(nus) and any(values[1:])
    _cold()
    calls.clear()
    table = multiplicity_table(a2, lam, 3)
    assert calls[True] == 0
    assert table == {nu[0]: v for nu, v in zip(nus, values) if v}


def test_untraced_table_rebuilds_no_twist_and_no_weight_at_the_leaf(monkeypatch):
    # a zero tail twists by the empty word, so the reduction neither reflects
    # lambda_0 nor beta; the level-0 leaf answers from lambda_0 and
    # beta in the integral group's coordinates, with no listed KL polynomial
    # and no second offset check
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name, sys._getframe(1).f_code.co_filename] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(ReflectionGroup, "act_word_root", counting(
        "act_word_root", ReflectionGroup.act_word_root))
    monkeypatch.setattr(kl, "kl_polynomial",
                        counting("kl_polynomial", kl.kl_polynomial))
    monkeypatch.setattr(kl, "base_multiplicity",
                        counting("base_multiplicity", kl.base_multiplicity))
    monkeypatch.setattr(RootDatum, "dominance_offset", counting(
        "dominance_offset", RootDatum.dominance_offset))
    _cold()
    a3 = build_root_datum("A3")
    group = a3.weyl_group()

    def reflect(i, vec, original=group.reflect):
        # the KL layer's descents reflect too; only the engine's twist counts
        if sys._getframe(1).f_code.co_filename == engine.__file__:
            calls["reflect", engine.__file__] += 1
        return original(i, vec)

    monkeypatch.setattr(group, "reflect", reflect)
    zero = Weight((0, 0, 0))
    lam = TruncatedWeight([zero, zero])
    table = multiplicity_table(a3, lam, 3)
    assert calls["reflect", engine.__file__] == 0
    assert calls["act_word_root", engine.__file__] == 0
    assert not [key for key in calls if key[0] in ("kl_polynomial",
                                                    "base_multiplicity",
                                                    "dominance_offset")]
    assert len(table) > 1 and _memo_size() > len(table)
    # the traced path agrees entry by entry; its leaves print the leaf's own
    # polynomial, so they compute no second one and no second offset: the
    # one offset check per query is the query's own
    _cold()
    calls.clear()
    betas = cone(a3.rank, 3)
    for beta in betas:
        nu0 = zero - a3.root_weight(beta)
        query = MultiplicityQuery(a3, lam, TruncatedWeight([nu0, zero]))
        assert multiplicity(query, trace=True)[0] == table.get(nu0, 0)
    assert calls == {("dominance_offset", engine.__file__): len(betas)}
