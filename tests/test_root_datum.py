import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from fractions import Fraction

from trunco.root_datum import CartanType, RootDatum, Weight, build_root_datum

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_root_counts():
    assert len(build_root_datum("A1").positive_roots) == 1
    assert len(build_root_datum("A2").positive_roots) == 3
    assert len(build_root_datum("B2").positive_roots) == 4
    assert len(build_root_datum("G2").positive_roots) == 6
    assert len(build_root_datum("A3").positive_roots) == 6
    assert len(build_root_datum("A1xA1").positive_roots) == 2


def test_positive_roots_are_nonnegative_combinations():
    for t in ("A2", "B2", "C3", "D4", "F4", "G2"):
        datum = build_root_datum(t)
        for r in datum.positive_roots:
            assert all(c >= 0 for c in r)
            assert any(c > 0 for c in r)


def test_cartan_pairing_convention():
    datum = build_root_datum("B2")
    for i in range(2):
        for j in range(2):
            assert datum.pairing(datum.root_weight(datum.simple_root(j)),
                                 datum.simple_root(i)) == datum.cartan[i][j]


def test_rho_pairs_to_one_with_every_simple_coroot():
    for t in ("A1", "A2", "B2", "G2", "A3"):
        datum = build_root_datum(t)
        for i in range(datum.rank):
            assert datum.pairing(datum.rho, datum.simple_root(i)) == 1


def test_reflection_examples():
    datum = build_root_datum("A2")
    alpha1 = datum.simple_root(0)
    # s_alpha sends alpha to -alpha
    w1 = datum.root_weight(alpha1)
    assert datum.reflect_weight(alpha1, w1) == -w1
    # s_1(alpha_1 + alpha_2) = alpha_2
    assert datum.reflect_root(alpha1, (1, 1)) == (0, 1)


def test_identity_word_acts_trivially():
    datum = build_root_datum("B2")
    group = datum.weyl_group()
    v = Weight((Fraction(3, 2), Fraction(-1)))
    assert group.identity().act(v) == v


def test_inverse_word_round_trip():
    rng = random.Random(7)
    for t in ("A2", "B2"):
        datum = build_root_datum(t)
        group = datum.weyl_group()
        elements = group.elements()
        for _ in range(100):
            w = rng.choice(elements)
            v = Weight(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(datum.rank)))
            assert w.inverse().act(w.act(v)) == v


def test_length_counts_inversions():
    for t in ("A2", "B2", "G2"):
        datum = build_root_datum(t)
        group = datum.weyl_group()
        for w in group.elements():
            inversions = sum(
                1 for r in datum.positive_roots
                if any(c < 0 for c in w.act_root(r)))
            assert w.length == len(w.word) == inversions


def test_longest_element():
    group = build_root_datum("A2").weyl_group()
    assert group.longest_element().length == 3
    assert group.order() == 6


def test_bruhat_examples():
    group = build_root_datum("A2").weyl_group()
    e = group.identity()
    s1 = group.from_word((0,))
    s1s2 = group.from_word((0, 1))
    s2s1 = group.from_word((1, 0))
    for w in group.elements():
        assert group.bruhat_leq(e, w)
        assert group.bruhat_leq(w, w)
    assert group.bruhat_leq(s1, s1s2)
    assert not group.bruhat_leq(s2s1, s1s2)


def test_bruhat_is_a_partial_order():
    for t in ("A2", "B2", "A3"):
        group = build_root_datum(t).weyl_group()
        elements = group.elements()
        for x in elements:
            for y in elements:
                if group.bruhat_leq(x, y) and group.bruhat_leq(y, x):
                    assert x == y
        rng = random.Random(1)
        for _ in range(300):
            x, y, z = (rng.choice(elements) for _ in range(3))
            if group.bruhat_leq(x, y) and group.bruhat_leq(y, z):
                assert group.bruhat_leq(x, z)


def test_bruhat_respects_length():
    group = build_root_datum("B2").weyl_group()
    for x in group.elements():
        for y in group.elements():
            if group.bruhat_leq(x, y):
                assert x.length <= y.length or x == y


def test_dominance_examples():
    a1 = build_root_datum("A1")
    lam = Weight((Fraction(5),))
    assert a1.dominance_leq(lam, lam)
    assert a1.dominance_leq(lam - a1.root_weight((1,)), lam)
    a2 = build_root_datum("A2")
    hi = Weight((0, 0))
    lo = hi - a2.root_weight((0, 1))
    # alpha_2 is not a combination of alpha_1 alone
    assert not a2.dominance_leq(lo, hi, indices=(0,))
    assert a2.dominance_leq(lo, hi)


def test_type_parsing():
    assert str(CartanType.parse("a2")) == "A2"
    assert CartanType.parse("A1xA1").rank == 2
    assert build_root_datum("b3").rank == 3
    with pytest.raises(ValueError):
        CartanType.parse("H3")
    with pytest.raises(ValueError):
        CartanType.parse("D3")


def test_sub_datum_matches_levi_cartan():
    datum = build_root_datum("A3")
    sub = datum.sub_datum((0, 2))
    assert sub.rank == 2
    assert len(sub.positive_roots) == 2
    assert sub.cartan[0][1] == 0


def test_coroot_coords_long_short():
    datum = build_root_datum("B2")
    # the highest root of B2 is long; its coroot is a short combination
    theta = max(datum.positive_roots, key=sum)
    coords = datum.coroot_coords(theta)
    assert all(c.denominator == 1 for c in coords)
    w = datum.root_weight(theta)
    assert datum.pairing(w, theta) == 2


TABLE_TYPES = ("A1", "A2", "B2", "C3", "D4", "F4", "G2", "A1xA1", "B3")


def test_coroot_table_matches_definition():
    for t in TABLE_TYPES:
        datum = build_root_datum(t)
        a, d, n = datum.cartan, datum.symmetrizer, datum.rank
        assert all(d[i] * a[i][j] == d[j] * a[j][i]
                   for i in range(n) for j in range(n)), t
        for alpha in datum.positive_roots:
            sq = sum(d[i] * a[i][j] * alpha[i] * alpha[j]
                     for i in range(n) for j in range(n))
            want = tuple(Fraction(2 * alpha[j] * d[j], sq) for j in range(n))
            assert datum.coroot_coords(alpha) == want, (t, alpha)
            neg = tuple(-c for c in alpha)
            assert datum.coroot_coords(neg) == tuple(-c for c in want), (t, neg)


def test_root_coords_matches_span_membership():
    # simple roots are linearly independent, so w = sum_j x_j alpha_j lies in
    # the span of {alpha_j : j in J} exactly when x vanishes off J
    rng = random.Random(11)
    for t in TABLE_TYPES:
        datum = build_root_datum(t)
        n = datum.rank
        for _ in range(40):
            subset = tuple(j for j in range(n) if rng.random() < 0.5)
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            if rng.random() < 0.5:
                x = [c if j in subset else Fraction(0) for j, c in enumerate(x)]
            w = Weight((0,) * n)
            for j, c in enumerate(x):
                w = w + c * datum.root_weight(datum.simple_root(j))
            got = datum.root_coords(w, subset)
            inside = all(c == 0 for j, c in enumerate(x) if j not in subset)
            assert (got is not None) == inside, (t, subset, x)
            assert datum.root_coords(w) == tuple(x), (t, x)
            if got is None:
                continue
            assert all(c == 0 for j, c in enumerate(got) if j not in subset)
            back = Weight((0,) * n)
            for j in subset:
                back = back + got[j] * datum.root_weight(datum.simple_root(j))
            assert back == w, (t, subset, x)
        for _ in range(20):
            w = Weight(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(n)))
            back = Weight((0,) * n)
            for j, c in enumerate(datum.root_coords(w)):
                back = back + c * datum.root_weight(datum.simple_root(j))
            assert back == w, (t, w)


def test_bad_roots_and_weights_rejected():
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError):
        a2.pairing(Weight((1, 1)), (2, 0))
    with pytest.raises(ValueError):
        a2.coroot_coords((1, 2))
    with pytest.raises(ValueError):
        a2.root_coords(Weight((1,)))
    with pytest.raises(ValueError):
        RootDatum([[2, 2], [2, 2]])


def test_guards_survive_optimized_mode():
    code = textwrap.dedent("""
        from trunco.root_datum import RootDatum, Weight, build_root_datum
        assert False, "asserts are live: not running under -O"
        a2 = build_root_datum("A2")
        calls = [lambda: a2.pairing(Weight((1, 1)), (2, 0)),
                 lambda: a2.coroot_coords((1, 2)),
                 lambda: a2.root_coords(Weight((1,))),
                 lambda: RootDatum([[2, 2], [2, 2]])]
        for k, call in enumerate(calls):
            try:
                call()
            except ValueError:
                continue
            raise SystemExit("call %d did not raise ValueError" % k)
        """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
