"""Cache policy: every table a Cartan matrix determines hangs off its datum.

`build_root_datum` and `RootDatum.sub_datum` hand out one interned datum
per Cartan matrix, so a Levi reached from any parent is the same object,
with the same reflection groups and Kostant partition function.  A datum
keeps one reflection group per Cartan matrix, its own and those of the
integral subsystems of its blocks, and a group holds nothing of the datum:
integral subsystems with one Cartan matrix share one group however they
sit in the datum.  The per-block work of the engine and the KL layer
(block plans with their values, level-zero values, block descriptors, and
one integral subsystem per fractional class of lambda_0) is kept on the
datum too,
so an uninterned `RootDatum(cartan)` builds its own and never sees the
interned datum's.
The few caches that live outside a datum are keyed by its Cartan matrix,
never by id(): a cache keyed by id(datum) returns another datum's entry
once that datum is freed and a new one is allocated at the same address.
The last two tests build and drop uninterned data (`RootDatum(cartan)`) of
different types in a loop, so such a cache would answer with a stale entry.
"""

import itertools
import random
from fractions import Fraction

import pytest

from trunco import engine, kl
from trunco.characters import PartitionCache, kostant_partition
from trunco.oracle import ChevalleyBasis
from trunco.engine import MultiplicityQuery
from trunco.root_datum import (CartanType, ReflectionGroup, RootDatum, Weight,
                               build_root_datum)
from trunco.trunc_weights import TruncatedWeight

TYPES = ("A1", "A2", "B2", "G2", "C2", "A1xA1", "A3", "B3")


def _fresh(type_str):
    return RootDatum(CartanType.parse(type_str).cartan_matrix())


def test_one_datum_per_cartan_matrix():
    a3 = build_root_datum("A3")
    assert build_root_datum("A1xA1") is a3.sub_datum((0, 2))
    assert build_root_datum("A1 x A1") is build_root_datum("A1xA1")
    for type_str in TYPES:
        d = build_root_datum(type_str)
        assert d.sub_datum(range(d.rank)) is d, type_str
        assert _fresh(type_str) is not d, type_str
    a2 = build_root_datum("A2")
    for parent in ("A3", "B3", "A4"):
        levi = build_root_datum(parent).sub_datum((0, 1))
        assert levi is a2, parent
        assert levi.weyl_group() is a2.weyl_group()
        assert levi.partitions is a2.partitions


def test_integral_group_is_shared_across_parents():
    # only alpha_1 + alpha_2 pairs integrally with lam0 + rho
    lam0 = Weight((Fraction(1, 2), Fraction(1, 2)))
    a2 = build_root_datum("A2")
    group = kl.integral_weyl_group(a2, lam0)
    assert kl.block_descriptor(a2, lam0).simples == ((1, 1),)
    assert group is kl.block_descriptor(a2, lam0).group
    assert group.cartan == ((2,),)
    for parent in ("A3", "B3", "A4"):
        levi = build_root_datum(parent).sub_datum((0, 1))
        assert kl.integral_weyl_group(levi, lam0) is group, parent


def test_one_group_per_integral_cartan_matrix():
    # alpha_2, alpha_1 and alpha_1 + alpha_2 are the integral simples of
    # these three blocks; each generates a W(A1), and the three share it
    a2 = build_root_datum("A2")
    half = Fraction(1, 2)
    descs = [kl.block_descriptor(a2, Weight(coords))
             for coords in ((half, 0), (0, half), (half, half))]
    assert [d.simples for d in descs] == [((0, 1),), ((1, 0),), ((1, 1),)]
    group = a2.reflection_group(((2,),))
    assert all(d.group is group for d in descs)
    assert a2.reflection_group([[2]]) is group
    assert a2.weyl_group() is a2.reflection_group(a2.cartan)


def test_a_group_holds_no_ambient_datum():
    for type_str in TYPES:
        datum = build_root_datum(type_str)
        zero = Weight((0,) * datum.rank)
        for group in (datum.weyl_group(), kl.integral_weyl_group(datum, zero)):
            assert not hasattr(group, "datum") and not hasattr(group, "simples")
            assert not any(isinstance(v, RootDatum)
                           for v in vars(group).values()), type_str


def test_plans_and_descriptors_are_per_datum():
    a2 = build_root_datum("A2")
    lam = TruncatedWeight([Weight((1, 0)), Weight((1, -1))])
    nu = TruncatedWeight([Weight((-1, -2)), Weight((1, -1))])
    engine.multiplicity(MultiplicityQuery(a2, lam, nu))
    lam0 = Weight((0, 0))
    shared = kl.block_descriptor(a2, lam0)
    assert kl.block_descriptor(a2, lam0) is shared
    plan = engine._block_plan(a2, lam.tail())
    assert a2._plans[lam.tail()] is plan
    assert plan.memo and plan.datum is a2
    fresh = _fresh("A2")
    assert not (fresh._plans or fresh._leaf_values or fresh._descriptors
                or fresh._subsystems)
    own = engine._block_plan(fresh, lam.tail())
    assert own is not plan and own.datum is fresh and not own.memo
    fields = ("level", "word", "levi", "tail", "sub", "cartan", "sub_tail")
    assert [getattr(own, f) for f in fields] == \
        [getattr(plan, f) for f in fields]
    desc = kl.block_descriptor(fresh, lam0)
    assert desc is not shared
    assert desc.datum is fresh and shared.datum is a2
    assert desc.group is fresh.reflection_group(shared.group.cartan)
    assert desc.group is not shared.group
    fields = ("dominant", "drop", "word", "y", "w0j_word", "w0j")
    assert [getattr(desc, f) for f in fields] == \
        [getattr(shared, f) for f in fields]
    assert set(fresh._descriptors) == {lam0}


def test_kostant_partition_of_dropped_data():
    for _ in range(10):
        for type_str in TYPES:
            d = _fresh(type_str)
            beta = tuple(range(2, d.rank + 2))
            assert kostant_partition(d, beta) == \
                PartitionCache(d.positive_roots).count(beta), type_str
            del d


def test_chevalley_basis_of_dropped_data():
    # Its own loop: a basis holds its datum, so a cache that kept one basis
    # per object would keep every datum alive and no address could recur.
    for _ in range(3):
        for type_str in TYPES[:6]:
            d = _fresh(type_str)
            assert ChevalleyBasis.get(d).datum.cartan == d.cartan, type_str
            del d


def test_a_traced_leaf_keeps_the_columns_untraced_queries_made(monkeypatch):
    # a traced level-0 leaf reads the KL columns that untraced queries
    # interned by id and lists no group, so neither it nor the next
    # untraced table computes a column again
    monkeypatch.delitem(RootDatum._interned, build_root_datum("B3").key)
    b3 = build_root_datum("B3")                 # a fresh interned datum
    zero = Weight((0, 0, 0))
    lam = TruncatedWeight((zero, zero))
    table = engine.multiplicity_table(b3, lam, 3)
    group = kl.integral_weyl_group(b3, zero)
    assert group._elements is None
    columns, intervals = dict(group._kl_columns), dict(group._intervals)
    # every leaf to depth 3 pairs elements of length at most 3, far from
    # l(w0) = 9, so each reads P_{y, y'_max} from the column of y'_max
    # (10 columns, with the shorter ones its recursion reads) and none
    # inverts a Bruhat interval
    assert max(group.length[y] for y in columns) == 3
    assert (len(columns), len(intervals)) == (10, 1)
    nu = TruncatedWeight((zero - b3.root_weight((1, 0, 0)), zero))
    monkeypatch.setattr(ReflectionGroup, "_materialize", _refuse_listing)
    engine.multiplicity(MultiplicityQuery(b3, lam, nu), trace=True)
    assert group._kl_columns == columns and group._intervals == intervals
    # the zero tail's Levi is all of B3, so every value below it is b3's
    b3._leaf_values.clear()
    for plan in b3._plans.values():
        plan.memo.clear()
    assert engine.multiplicity_table(b3, lam, 3) == table
    assert group._kl_columns == columns


def _refuse_listing(group):
    raise AssertionError("listed a group of %d generators" % group.num_gens)


def _rational_weights(rank, rng, count):
    """count weights with numerators in -9..9 over denominators 1, 2 and 3,
    each with a non-integral entry."""
    out = []
    while len(out) < count:
        w = Weight(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                         for _ in range(rank)))
        if not all(type(c) is int for c in w.coords):
            out.append(w)
    return out


def test_one_integral_subsystem_per_fractional_class():
    # <lam0 + rho, alpha^vee> is integral or not by the fractional parts of
    # lam0 alone, since coroots have integer coordinates
    rng = random.Random(11)
    for type_str in ("A2", "B2", "G2", "B3"):
        datum = _fresh(type_str)
        for lam0 in _rational_weights(datum.rank, rng, 12):
            desc = kl.block_descriptor(datum, lam0)
            for shift in itertools.product((-2, 0, 1), repeat=datum.rank):
                other = kl.block_descriptor(datum, lam0 + Weight(shift))
                assert other.simples is desc.simples, (type_str, lam0, shift)
                assert other.group is desc.group
                assert other.pairings is desc.pairings
        classes = {tuple(c - (c.numerator // c.denominator)
                         for c in lam0.coords) for lam0 in datum._descriptors}
        assert set(datum._subsystems) == classes


def _descriptor_by_pairings(datum, lam0):
    """(simples, shifted, pairings, group, dominant, drop, y) of the block
    through lam0, from `integral_subsystem` and `RootDatum.pairing` alone."""
    simples = tuple(kl.integral_subsystem(datum, lam0)[1])
    lam_rho = lam0 + datum.rho
    shifted = tuple(datum.pairing(lam_rho, r) for r in simples)
    assert all(c.denominator == 1 for c in shifted)
    shifted = tuple(map(int, shifted))
    columns = tuple(zip(*datum.cartan))
    pairings = tuple(
        tuple(sum(c * a for c, a in zip(datum.coroot_coords(r), column))
              for column in columns)
        for r in simples)
    group = datum.reflection_group(
        [[sum(p * b for p, b in zip(row, beta)) for beta in simples]
         for row in pairings])
    dominant, word, drop = group.descend(shifted)
    return (simples, shifted, pairings, group, dominant, tuple(drop),
            group._vecs[group._apply(word, 0)])


def test_descriptors_equal_those_built_from_pairings():
    rng = random.Random(12)
    for type_str in ("A2", "B2", "G2", "B3"):
        datum = _fresh(type_str)
        for lam0 in _rational_weights(datum.rank, rng, 40):
            desc = kl.block_descriptor(datum, lam0)
            assert (desc.simples, desc.shifted, desc.pairings, desc.group,
                    desc.dominant, desc.drop, desc.y) == \
                _descriptor_by_pairings(datum, lam0), (type_str, lam0)
            assert all(type(c) is int for c in desc.shifted)


def test_an_integral_descriptor_makes_no_pairing(monkeypatch):
    def refused(*args):
        raise AssertionError("pairing called")

    datum = _fresh("B3")
    monkeypatch.setattr(datum, "pairing", refused)
    for coords in itertools.product((-2, 0, 1), repeat=3):
        desc = kl.block_descriptor(datum, Weight(coords))
        assert desc.group is datum.weyl_group()
        assert desc.shifted == tuple(c + 1 for c in coords)
    assert list(datum._subsystems) == [(0, 0, 0)]


def test_class_tables_still_check_the_rank():
    a2 = build_root_datum("A2")
    kl.block_descriptor(a2, Weight((Fraction(1, 2), 0)))  # a stored class
    for short in (Weight((Fraction(1, 2),)), Weight((0,)),
                  Weight((Fraction(1, 2), 0, 0))):
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            kl.block_descriptor(a2, short)
        for lower, upper in ((short, Weight((1, 0))), (Weight((1, 0)), short)):
            with pytest.raises(ValueError, match="coordinates, expected 2"):
                a2.dominance_offset(lower, upper)


def test_an_integral_offset_check_builds_no_weight_and_no_fraction(
        monkeypatch):
    made = []

    def counting(cls, original):
        def new(*args, **kwargs):
            made.append(cls)
            return original(*args, **kwargs)
        return new

    a3 = build_root_datum("A3")
    lam = TruncatedWeight((Weight((1, -2, 0)), Weight((0, 1, 0))))
    nus = [TruncatedWeight((lam[0] - a3.root_weight(beta), lam[1]))
           for beta in ((0, 0, 0), (1, 1, 0), (1, 2, 1), (-1, 0, 0))]
    nus.append(TruncatedWeight((Weight((4, -2, 1)), lam[1])))
    queries = [MultiplicityQuery(a3, lam, nu) for nu in nus]
    init = Weight.__init__
    monkeypatch.setattr(Weight, "__init__", counting(Weight, init))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        counting(Fraction, Fraction.__new__)))
    Weight((1,)), Fraction(1, 2)
    assert made == [Weight, Fraction]           # the counters are live
    made.clear()
    offsets = [a3.dominance_offset(nu[0], lam[0]) for nu in nus]
    assert made == []
    assert offsets == [(0, 0, 0), (1, 1, 0), (1, 2, 1), None, None]
    # and so through the engine, whose one offset check is the query's
    check = RootDatum.dominance_offset
    during = []

    def checked(self, lower, upper):
        before = len(made)
        offset = check(self, lower, upper)
        during.append(len(made) - before)
        return offset

    monkeypatch.setattr(RootDatum, "dominance_offset", checked)
    for query in queries:
        engine.multiplicity(query)
    assert during == [0] * len(queries)
