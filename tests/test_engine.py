import collections
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trunco import engine, kl, oracle
from trunco.characters import cone
from trunco.engine import MultiplicityQuery, multiplicity, multiplicity_table
from trunco.root_datum import (ReflectionGroup, RootDatum, Weight,
                               build_root_datum)
from trunco.trunc_weights import TruncatedWeight, find_twisting_word, n_dot

import engine_reference


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
        s = group.from_word((i,))
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
    dec = oracle.verma_decomposition(datum, lam, depth)
    for beta in cone(datum.rank, depth):
        nu = TruncatedWeight((lam[0] - datum.root_weight(beta),) + lam.tail())
        assert _value(datum, lam, nu) == dec.get(beta, 0), (type_str, lam, beta)


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


@pytest.mark.parametrize("type_str", ["B7", "D7", "E7", "E8", "A9"])
def test_equal_weights_answer_without_listing_w(type_str):
    # a zero tail twists by e, so nothing lists the Weyl group
    datum = build_root_datum(type_str)
    zero = Weight((0,) * datum.rank)
    lam = TruncatedWeight([zero, zero])
    assert _value(datum, lam, lam) == 1
    assert datum.weyl_group()._elements is None


def _cold():
    """Empty the value memo and every interned datum's per-block tables."""
    engine._VALUE_MEMO.clear()
    for datum in RootDatum._interned.values():
        datum._twists.clear()
        datum._plans.clear()
        datum._descriptors.clear()


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


@pytest.mark.parametrize("type_str, depth", [
    ("A2", 3), ("B2", 3), ("G2", 3), ("A1xA1", 3), ("A3", 2), ("B3", 2)])
def test_block_plans_match_the_per_query_reduction(type_str, depth):
    datum, blocks = _plan_blocks(type_str, depth + len(type_str))
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
                    assert got_node.to_dict() == want_node.to_dict(), \
                        (type_str, str(lam), str(nu), cold)


def test_one_twisting_search_per_top_component(monkeypatch):
    calls = collections.Counter()
    search = engine.find_twisting_word

    def counted(datum, mu):
        calls[datum.key, mu] += 1
        return search(datum, mu)

    monkeypatch.setattr(engine, "find_twisting_word", counted)
    _cold()
    a2 = build_root_datum("A2")
    # three level-2 tails share the top (1,-1); the Levi tails repeat too
    lams = [_tw((1, 0), (0, 0), (1, -1)), _tw((0, 1), (1, 0), (1, -1)),
            _tw((2, 0), (1, 0), (1, -1)), _tw((1, 1), (1, -1)),
            _tw((0, 0), (0, 1))]
    for _ in range(2):
        for lam in lams:
            multiplicity_table(a2, lam, 3)
    assert calls[a2.key, Weight((1, -1))] == 1
    assert len(calls) > len(lams) - 2
    assert set(calls.values()) == {1}


def test_one_offset_check_per_query(monkeypatch):
    # the recursion carries beta = lambda_0 - nu_0; only the public query
    # checks nu against lambda, and a table passes each beta straight in
    calls = collections.Counter()
    check = RootDatum.dominance_offset

    def counted(self, lower, upper, indices=None):
        calls[sys._getframe(1).f_code.co_filename == engine.__file__] += 1
        return check(self, lower, upper, indices)

    monkeypatch.setattr(RootDatum, "dominance_offset", counted)
    _cold()
    a2 = build_root_datum("A2")
    lam = _tw((1, 0), (0, 0), (1, -1))
    nus = [TruncatedWeight((lam[0] - a2.root_weight(beta),) + lam.tail())
           for beta in cone(a2.rank, 3)]
    values = [_value(a2, lam, nu) for nu in nus]
    assert calls[True] == len(nus)
    # the children below the queries were solved without a check
    assert len(engine._VALUE_MEMO) > len(nus) and any(values[1:])
    _cold()
    calls.clear()
    table = multiplicity_table(a2, lam, 3)
    assert calls[True] == 0
    assert table == {nu[0]: v for nu, v in zip(nus, values) if v}


def test_untraced_table_rebuilds_no_twist_and_no_weight_at_the_leaf(monkeypatch):
    # a zero tail twists by the empty word, so the reduction neither applies
    # it to lambda_0 nor to beta; the level-0 leaf answers from lambda_0 and
    # beta in the integral group's coordinates, with no listed KL polynomial
    # and no second offset check
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name, sys._getframe(1).f_code.co_filename] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(engine, "shifted_dot",
                        counting("shifted_dot", engine.shifted_dot))
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
    zero = Weight((0, 0, 0))
    lam = TruncatedWeight([zero, zero])
    table = multiplicity_table(a3, lam, 3)
    assert calls["shifted_dot", engine.__file__] == 0
    assert calls["act_word_root", engine.__file__] == 0
    assert not [key for key in calls if key[0] in ("kl_polynomial",
                                                    "base_multiplicity",
                                                    "dominance_offset")]
    assert len(table) > 1 and len(engine._VALUE_MEMO) > len(table)
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
