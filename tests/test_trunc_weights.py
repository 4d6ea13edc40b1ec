import itertools
import random

import pytest
from fractions import Fraction

from trunco.root_datum import RootDatum, Weight, build_root_datum
from trunco.trunc_weights import (TruncatedWeight, _singular_levi,
                                  find_twisting_word, n_dot, same_block)

from engine_reference import restrict, truncate
from levi_reference import dominant_walk, singular_roots, standard_levi
from weyl_ops import act, act_root, from_word, mult


def _tw(*coords):
    return TruncatedWeight([Weight(c) for c in coords])


def test_truncated_weight_basics():
    lam = _tw((1, 2), (0, 1))
    assert lam.level == 1
    assert lam.tail() == (Weight((0, 1)),)
    assert truncate(lam, 0).level == 0
    assert str(lam) == "[1,2],[0,1]"
    assert restrict(lam, (0,))[0] == Weight((1,))
    assert restrict(lam, (1,))[1] == Weight((1,))


def test_truncated_weight_rejects_bad_components():
    with pytest.raises(ValueError):
        TruncatedWeight([])
    with pytest.raises(ValueError):
        _tw((1, 2), (0,))
    with pytest.raises(ValueError):
        _tw((1,), (0, 1), (0, 1))


def test_same_block():
    assert same_block(_tw((1, 2), (0, 1)), _tw((5, -3), (0, 1)))
    assert not same_block(_tw((1, 2), (0, 1)), _tw((1, 2), (1, 1)))
    assert not same_block(_tw((1, 2)), _tw((1, 2), (0, 0)))


def test_singular_roots():
    a2 = build_root_datum("A2")
    assert singular_roots(a2, Weight((1, 1))) == []
    assert singular_roots(a2, Weight((0, 0))) == a2.positive_roots
    assert singular_roots(a2, Weight((0, 1))) == [(1, 0)]
    # the highest root is singular for (1, -1): not a standard Levi set
    assert singular_roots(a2, Weight((1, -1))) == [(1, 1)]


def test_singular_roots_equivariance():
    for t in ("A2", "B2"):
        datum = build_root_datum(t)
        group = datum.weyl_group()
        mus = [Weight((a, b)) for a in range(-2, 3) for b in range(-2, 3)]
        for w in group.elements():
            for mu in mus:
                image = set()
                for r in singular_roots(datum, mu):
                    v = act_root(w, r)
                    if any(c < 0 for c in v):
                        v = tuple(-c for c in v)
                    image.add(v)
                assert image == set(singular_roots(datum, act(w, mu)))


def test_standard_levi():
    a2 = build_root_datum("A2")
    assert standard_levi(a2, []) == ()
    assert standard_levi(a2, [(1, 0)]) == (0,)
    assert standard_levi(a2, a2.positive_roots) == (0, 1)
    assert standard_levi(a2, [(1, 1)]) is None


def test_find_twisting_word_trivial_cases():
    a2 = build_root_datum("A2")
    assert find_twisting_word(a2, Weight((1, 1))) == ((), ())
    assert find_twisting_word(a2, Weight((0, 0))) == ((), (0, 1))
    assert find_twisting_word(a2, Weight((0, 1))) == ((), (0,))


def test_find_twisting_word_nontrivial():
    a2 = build_root_datum("A2")
    w, j = find_twisting_word(a2, Weight((1, -1)))
    assert len(w) == 1
    assert len(j) == 1
    moved = a2.weyl_group().act_word(w, Weight((1, -1)))
    assert standard_levi(a2, singular_roots(a2, moved)) == j


def _sample_weights(rank, rng):
    """Every integral weight with entries in -2..2 (up to rank 2, else a
    sample of them), and as many with random rational entries."""
    grid = [Weight(c) for c in itertools.product(range(-2, 3), repeat=rank)]
    if rank > 2:
        grid = rng.sample(grid, 60)
    rational = [Weight(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                           for _ in range(rank))) for _ in grid]
    return grid + rational


def test_singular_levi_matches_the_root_by_root_test():
    rng = random.Random(5)
    for t in ("A2", "B2", "G2", "A3", "B3", "C3"):
        datum = build_root_datum(t)
        for mu in _sample_weights(datum.rank, rng):
            assert _singular_levi(datum, mu.coords) == \
                standard_levi(datum, singular_roots(datum, mu)), (t, mu)


def _scanned_levi(datum, nu):
    """`_singular_levi` by the scan over every positive root alone."""
    j = tuple(i for i, c in enumerate(nu) if c == 0)
    for root in datum.positive_roots:
        if (not sum(c * v for c, v in zip(datum.coroot_coords(root), nu))
                and any(root[i] for i in range(datum.rank) if nu[i] != 0)):
            return None
    return j


class _Unscanned(list):
    def __iter__(self):
        raise AssertionError("the positive roots were scanned")


def test_a_dominant_point_skips_the_root_scan():
    # a dominant point's singular roots are those of the standard Levi on
    # its zero entries (Humphreys 1.12); every other point is scanned
    rng = random.Random(8)
    for t in ("A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4", "E6"):
        datum = build_root_datum(t)
        unscanned = RootDatum(datum.cartan)
        unscanned.positive_roots = _Unscanned(datum.positive_roots)
        for mu in _sample_weights(datum.rank, rng):
            nu = mu.coords
            assert _singular_levi(datum, nu) == _scanned_levi(datum, nu), \
                (t, mu)
            point = tuple(abs(c) for c in nu)
            assert _singular_levi(unscanned, point) == \
                _scanned_levi(datum, point) == \
                tuple(i for i, c in enumerate(point) if c == 0), (t, point)


_WALK_TYPES = ("A2", "B2", "G2", "A3", "B3", "C3")


def test_find_twisting_word_is_the_walk_toward_the_dominant_chamber():
    rng = random.Random(3)
    for t in _WALK_TYPES:
        datum = build_root_datum(t)
        for mu in _sample_weights(datum.rank, rng):
            assert find_twisting_word(datum, mu) == dominant_walk(datum, mu), \
                (t, mu)


def test_twisting_words_meet_the_chain_condition():
    # each letter, applied right to left, reflects in a root that pairs
    # strictly negatively with the partly twisted weight
    rng = random.Random(3)
    for t in _WALK_TYPES:
        datum = build_root_datum(t)
        for mu in _sample_weights(datum.rank, rng):
            word, j = find_twisting_word(datum, mu)
            partial = mu
            for i in reversed(word):
                alpha = datum.simple_root(i)
                pair = datum.pairing(partial, alpha)
                assert pair < 0, (t, mu, word)
                partial = partial - pair * datum.root_weight(alpha)
            assert standard_levi(datum, singular_roots(datum, partial)) == j


def test_a_standard_weight_keeps_the_empty_word():
    rng = random.Random(3)
    for t in _WALK_TYPES:
        datum = build_root_datum(t)
        for mu in _sample_weights(datum.rank, rng):
            j = standard_levi(datum, singular_roots(datum, mu))
            if j is not None:
                assert find_twisting_word(datum, mu) == ((), j), (t, mu)


def test_layer_search_leaves_the_group_unlisted():
    # the walk reflects one vector and interns no element
    datum = RootDatum(build_root_datum("B3").cartan)   # not interned
    word, j = find_twisting_word(datum, Weight((1, -1, 1)))
    assert word and j is not None
    assert datum.weyl_group()._elements is None


def test_n_dot_levels():
    a1 = build_root_datum("A1")
    group = a1.weyl_group()
    s = from_word(group, (0,))
    # level 0 is the classical dot action: s.m = -m - 2
    lam = _tw((3,))
    assert n_dot(a1, s.word, lam)[0] == Weight((-5,))
    # level 1 shifts by 2 rho instead
    lam = _tw((3,), (1,))
    image = n_dot(a1, s.word, lam)
    assert image[0] == Weight((-7,))
    assert image[1] == Weight((-1,))


def test_n_dot_refuses_a_letter_outside_the_generators():
    a2 = build_root_datum("A2")
    lam = _tw((1, 0), (0, 1))
    for word in ((-1,), (2,)):
        with pytest.raises(ValueError, match="outside 0..1"):
            n_dot(a2, word, lam)


def test_n_dot_is_a_group_action():
    rng = random.Random(11)
    for t in ("A2", "B2"):
        datum = build_root_datum(t)
        group = datum.weyl_group()
        elements = group.elements()
        for _ in range(200):
            w1, w2 = rng.choice(elements), rng.choice(elements)
            lam = _tw(*(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                              for _ in range(datum.rank))
                        for _ in range(rng.randint(1, 3))))
            lhs = n_dot(datum, mult(group, w1, w2).word, lam)
            rhs = n_dot(datum, w1.word, n_dot(datum, w2.word, lam))
            assert lhs == rhs


def test_n_dot_preserves_blocks():
    a2 = build_root_datum("A2")
    group = a2.weyl_group()
    lam = _tw((1, 0), (2, -1))
    nu = _tw((0, 0), (2, -1))
    for w in group.elements():
        assert same_block(n_dot(a2, w.word, lam), n_dot(a2, w.word, nu))


def test_root_coords_on_a_levi():
    a2 = build_root_datum("A2")
    lam = _tw((2, 0), (0, 1))
    nu = _tw((0, 1), (0, 1))     # difference is alpha_1
    # a difference lies in the span of the Levi (0,) when its coordinates
    # vanish off it
    assert a2.root_coords(lam[0] - nu[0]) == (Fraction(1), Fraction(0))
    nu2 = _tw((3, -2), (0, 1))   # difference is alpha_2
    assert a2.root_coords(lam[0] - nu2[0]) == (0, 1)
    # empty Levi: only equal zero components are in the span
    assert a2.root_coords(lam[0] - lam[0]) == (0, 0)
    assert any(a2.root_coords(lam[0] - nu[0]))


def test_find_twisting_word_rejects_a_rank_mismatch():
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError, match="expected 2"):
        find_twisting_word(a2, Weight((1,)))
    with pytest.raises(ValueError, match="expected 2"):
        find_twisting_word(a2, Weight((1, 0, 0)))


def test_n_dot_rejects_a_rank_mismatch():
    # a rank-1 weight used to come back twisted as [-5],[0]
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError, match="expected 2"):
        n_dot(a2, (0,), _tw((1,), (0,)))
