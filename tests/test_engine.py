from fractions import Fraction

import pytest

from trunco.engine import MultiplicityQuery, multiplicity, multiplicity_table
from trunco.root_datum import Weight, build_root_datum
from trunco.trunc_weights import TruncatedWeight, find_twisting_word, n_dot


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
        assert _value(a2, n_dot(a2, s, lam), n_dot(a2, s, nu)) == base


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
