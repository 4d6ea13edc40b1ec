import itertools

import pytest
from fractions import Fraction

from trunco.characters import (DecompositionError, FormalCharacter, cone,
                               decompose_in_block, kostant_partition,
                               verma_character)
from trunco.engine import multiplicity_table
from trunco.root_datum import Weight, build_root_datum
from trunco.trunc_weights import TruncatedWeight

from pbw_reference import pbw_character


def _tw(*coords):
    return TruncatedWeight([Weight(c) for c in coords])


def test_kostant_partition_small_values():
    a2 = build_root_datum("A2")
    assert kostant_partition(a2, (0, 0)) == 1
    assert kostant_partition(a2, (1, 0)) == 1
    assert kostant_partition(a2, (0, 1)) == 1
    assert kostant_partition(a2, (1, 1)) == 2
    assert kostant_partition(a2, (2, 1)) == 2
    assert kostant_partition(a2, (2, 2)) == 3


def _partition_by_generating_function(datum, depth):
    """Expand the product over positive roots of 1/(1 - x^alpha)."""
    cone = [b for b in itertools.product(*(range(depth + 1),) * datum.rank)
            if sum(b) <= depth]
    series = {b: 0 for b in cone}
    series[(0,) * datum.rank] = 1
    for root in datum.positive_roots:
        nxt = dict(series)
        for b in sorted(cone, key=sum):
            src = tuple(x - y for x, y in zip(b, root))
            if all(c >= 0 for c in src):
                nxt[b] += nxt[src]
        series = nxt
    return series


def test_kostant_partition_against_generating_function():
    for t in ("A2", "B2"):
        datum = build_root_datum(t)
        series = _partition_by_generating_function(datum, 8)
        for beta, expected in series.items():
            assert kostant_partition(datum, beta) == expected


def test_kostant_partition_rejects_negative():
    a2 = build_root_datum("A2")
    assert kostant_partition(a2, (-1, 0)) == 0


def test_kostant_partition_rejects_a_non_integer_entry():
    # int() used to truncate: (1/2, 0) counted as (0, 0) and (1.9, 1) as
    # (1, 1)
    a2 = build_root_datum("A2")
    for beta in ((Fraction(1, 2), 0), (1.9, 1), (0, Fraction(-1, 3))):
        with pytest.raises(ValueError, match="non-integer partition"):
            kostant_partition(a2, beta)
    # integral Fractions are counted as integers
    assert kostant_partition(a2, (Fraction(2), Fraction(1))) == \
        kostant_partition(a2, [2, 1]) == 2


def test_kostant_partition_refuses_a_float_even_after_a_hit():
    # 1.0 == 1 and hash(1.0) == hash(1), so (1.0, 1) used to count as
    # (1, 1), where Weight((1.0, 0)) raises; a finished count of (1, 1)
    # must not answer it either
    a2 = build_root_datum("A2")
    assert kostant_partition(a2, (1, 1)) == 2
    for beta in ((1.0, 1), (1, 1.0), [0.0, 0]):
        with pytest.raises(ValueError, match="non-integer partition"):
            kostant_partition(a2, beta)
    assert kostant_partition(a2, [1, 1]) == 2
    with pytest.raises(ValueError, match="coordinates"):
        kostant_partition(a2, (1, 1, 0))


def test_verma_character_level_zero_is_kostant():
    a2 = build_root_datum("A2")
    ch = verma_character(a2, _tw((0, 0)), 4)
    for beta in ch.table:
        assert ch.table[beta] == kostant_partition(a2, beta)


def test_verma_character_sl2_levels():
    a1 = build_root_datum("A1")
    ch1 = verma_character(a1, _tw((0,), (0,)), 6)
    for k in range(7):
        assert ch1.coefficient((k,)) == k + 1
    ch2 = verma_character(a1, _tw((0,), (0,), (0,)), 6)
    for k in range(7):
        assert ch2.coefficient((k,)) == (k + 1) * (k + 2) // 2


def test_verma_character_top_coefficient():
    a2 = build_root_datum("A2")
    for n in range(3):
        ch = verma_character(a2, _tw(*(((0, 0),) * (n + 1))), 3)
        assert ch.coefficient((0, 0)) == 1


def test_verma_character_methods_agree():
    for t in ("A1", "A2", "B2", "G2", "A1xA1", "A3", "B3"):
        datum = build_root_datum(t)
        depth = 4 if datum.rank < 3 else 3
        for n in range(3):
            lam = _tw(*(((0,) * datum.rank,) * (n + 1)))
            a = verma_character(datum, lam, depth)
            b = pbw_character(datum, lam, depth)
            assert a == b


def test_depth_must_be_a_nonnegative_integer():
    # a depth of 2.5 used to raise TypeError from range
    a2 = build_root_datum("A2")
    lam = _tw((0, 0), (1, 0))
    for depth in (-1, 2.5, Fraction(2), True, "2"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            cone(2, depth)
        with pytest.raises(ValueError, match="nonnegative integer"):
            verma_character(a2, lam, depth)
        with pytest.raises(ValueError, match="nonnegative integer"):
            multiplicity_table(a2, lam, depth)


def test_decompose_simple_against_itself():
    a1 = build_root_datum("A1")
    ch = FormalCharacter(base=Weight((2,)), depth=3,
                         table={(0,): 1, (1,): 1, (2,): 1})

    def provider(beta):
        assert beta == (0,)
        return ch

    assert decompose_in_block(a1, ch, provider) == {(0,): 1}


def test_decompose_dominant_sl2_verma():
    a1 = build_root_datum("A1")
    m = 3
    depth = m + 2
    verma = verma_character(a1, _tw((m,)), depth)

    def provider(beta):
        k = m - beta[0]
        if k >= 0:
            # finite dimensional simple of highest weight k
            table = {(j,): 1 if j <= k else 0 for j in range(depth + 1)}
        else:
            # antidominant: the Verma itself is simple
            table = {(j,): 1 for j in range(depth + 1)}
        return FormalCharacter(base=Weight((beta[0],)), depth=depth,
                               table=table)

    mults = decompose_in_block(a1, verma, provider)
    assert mults == {(0,): 1, (m + 1,): 1}


def test_decompose_reports_inconsistency():
    a1 = build_root_datum("A1")
    verma = verma_character(a1, _tw((0,)), 2)

    def provider(beta):
        # claims every simple has a two dimensional tail: impossible
        return FormalCharacter(base=Weight((0,)), depth=2,
                               table={(0,): 1, (1,): 2})

    with pytest.raises(DecompositionError):
        decompose_in_block(a1, verma, provider)


def test_verma_character_rejects_a_rank_mismatch():
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError, match="expected 2"):
        verma_character(a2, _tw((0, 0, 0), (0, 0, 0)), 2)
