"""Weights keep integral entries as ints and only non-integral ones as
Fractions; floats are refused at the boundary."""

import random
from fractions import Fraction

import pytest

from trunco import engine, kl, linalg
from trunco.engine import MultiplicityQuery, MultiplicityTrace, multiplicity
from trunco.characters import FormalCharacter
from trunco.kl import KLPolynomial
from trunco.root_datum import CartanType, RootDatum, Weight, build_root_datum
from trunco.trunc_weights import TruncatedWeight

from weyl_ops import from_word

TYPES = ("A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "A1xA1")


def test_integral_coordinates_are_ints():
    w = Weight((2, Fraction(4, 2), "3", "1/2", Fraction(-3, 6), True))
    assert [type(c) for c in w.coords] == [int, int, int, Fraction, Fraction, int]
    assert w.coords == (2, 2, 3, Fraction(1, 2), Fraction(-1, 2), 1)
    half = Weight(("1/2", "1/2"))
    assert all(type(c) is int for c in (half + half).coords)
    assert all(type(c) is int for c in (2 * half).coords)
    a2 = build_root_datum("A2")
    lam = Weight((3, 0))    # 2 alpha_1 + alpha_2
    # the reflection in alpha_1 + alpha_2 is s_1 s_2 s_1
    reflected = a2.weyl_group().act_word((0, 1, 0), lam)
    assert reflected == Weight((0, -3))
    assert all(type(c) is int for c in reflected.coords)
    assert a2.root_coords(lam) == (2, 1)
    assert all(type(c) is int for c in a2.root_coords(lam))
    assert a2.root_coords(Weight((1, 0))) == (Fraction(2, 3), Fraction(1, 3))
    assert type(a2.pairing(lam, (1, 1))) is int


def test_floats_rejected():
    for bad in ((0.1,), (1, 2.0)):
        with pytest.raises(ValueError):
            Weight(bad)
    with pytest.raises(ValueError):
        Weight((1,)) * 0.5


def _memo_size():
    """Values the engine keeps on the interned data."""
    return sum(len(datum._leaf_values)
               + sum(len(plan.memo) for plan in datum._plans.values())
               for datum in RootDatum._interned.values())


def test_spellings_of_one_weight_agree():
    a2 = build_root_datum("A2")
    spellings = [(2, 0), (Fraction(2), Fraction(0)), ("2", "0")]
    tail = Weight((1, "1/2"))
    lams = [TruncatedWeight((Weight(s), tail)) for s in spellings]
    for lam in lams:
        assert lam == lams[0] and hash(lam) == hash(lams[0])
        assert str(lam) == "[2,0],[1,1/2]"
        assert lam[0] == Weight(spellings[0])
        assert hash(lam[0]) == hash(Weight(spellings[0]))
    nu = TruncatedWeight((lams[0][0] - a2.root_weight((1, 0)), tail))
    value, _ = multiplicity(MultiplicityQuery(a2, lams[0], nu))
    plan = engine._block_plan(a2, lams[0].tail())
    size = _memo_size()
    for lam in lams:
        assert engine._block_plan(a2, lam.tail()) is plan
        assert (lam[0].coords, (1, 0)) in plan.memo
        assert multiplicity(MultiplicityQuery(a2, lam, nu))[0] == value
    assert _memo_size() == size
    queries = [MultiplicityQuery(a2, lam, nu) for lam in lams]
    cartans = [CartanType.parse(t) for t in ("A1xG2", " a1 x g2 ")]
    cartans.append(CartanType((("A", 1), ("G", 2))))
    # P_{s2, s2 s1 s3 s2} = 1 + q in A3, computed and written out
    a3 = build_root_datum("A3").weyl_group()
    polys = [kl.kl_polynomial(a3, from_word(a3, (1,)),
                              from_word(a3, (1, 0, 2, 1))),
             KLPolynomial((1, 1)), KLPolynomial(tuple([1, 1]))]
    for same in (queries, cartans, polys):
        for item in same:
            assert item == same[0] and hash(item) == hash(same[0])
            assert not item != same[0]
    assert queries[0] != MultiplicityQuery(a2, lams[0], lams[0])
    assert cartans[0] != CartanType.parse("G2xA1")
    assert polys[0] != KLPolynomial((1,))
    assert Weight((1, 0)) != (1, 0) and KLPolynomial((1,)) != (1,)


def test_value_classes_are_frozen():
    a2 = build_root_datum("A2")
    weight = Weight((1, 0))
    lam = TruncatedWeight((weight, weight))
    frozen = [(weight, "coords"), (lam, "components"),
              (CartanType.parse("A2"), "factors"),
              (KLPolynomial((1, 1)), "coeffs"),
              (MultiplicityQuery(a2, lam, lam), "lam")]
    for item, field in frozen:
        before = getattr(item, field)
        with pytest.raises(AttributeError):
            setattr(item, field, before)
        with pytest.raises(AttributeError):
            delattr(item, field)
        with pytest.raises(AttributeError):
            item.extra = 0
        assert getattr(item, field) is before
    # weights carry no per-instance dictionary
    assert not hasattr(weight, "__dict__") and not hasattr(lam, "__dict__")
    # the mutable records default to fresh containers
    first, second = MultiplicityTrace("zero", 0), MultiplicityTrace("zero", 0)
    first.details["reason"] = "r"
    assert first == MultiplicityTrace("zero", 0, {"reason": "r"}) != second
    assert second.to_dict() == {"kind": "zero", "value": 0, "details": {},
                                "children": []}
    assert FormalCharacter(weight, 1).table == {}
    # one block descriptor per datum and lambda_0, equal only to itself
    desc = kl.block_descriptor(a2, weight)
    assert kl.block_descriptor(a2, weight) is desc
    copy = kl.BlockDescriptor(*(getattr(desc, f) for f in (
        "datum", "simples", "group", "shifted", "pairings", "dominant",
        "drop", "word")))
    assert copy != desc and hash(copy) != hash(desc)


def _fraction_inverse(datum):
    # the inverse Cartan matrix as Fractions, from [C | I] in echelon form
    n = datum.rank
    ech, _ = linalg.row_echelon([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(datum.cartan)])
    return [row[n:] for row in ech]


@pytest.mark.parametrize("type_str", TYPES)
def test_root_coords_matches_fraction_inverse(type_str):
    datum = build_root_datum(type_str)
    n = datum.rank
    inverse = _fraction_inverse(datum)
    rng = random.Random(n)
    weights = [Weight(tuple(int(i == j) for j in range(n))) for i in range(n)]
    weights += [Weight(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(n))) for _ in range(10)]
    subsets = [(), (0,), tuple(range(1, n)), tuple(range(n))]
    for w in weights:
        want = tuple(sum(b * c for b, c in zip(row, w.coords)) for row in inverse)
        got = datum.root_coords(w)
        assert got == want, (type_str, w)
        assert [type(c) is int for c in got] == [
            c.denominator == 1 for c in want], (type_str, w)
        # w lies in the span of a subset of the simple roots exactly when
        # its coordinates vanish off the subset
        for subset in subsets:
            inside = all(want[j] == 0 for j in range(n) if j not in subset)
            assert all(got[j] == 0 for j in range(n)
                       if j not in subset) == inside
        # a weight in the span of a subset of the simple roots
        subset = tuple(j for j in range(n) if rng.random() < 0.5)
        v = Weight((0,) * n)
        for j in subset:
            v = v + want[j] * datum.root_weight(datum.simple_root(j))
        coords = datum.root_coords(v)
        assert coords == tuple(want[j] if j in subset else 0 for j in range(n))
