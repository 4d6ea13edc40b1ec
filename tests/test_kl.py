import random
from fractions import Fraction

import pytest

from trunco.characters import cone
from trunco.engine import MultiplicityQuery, multiplicity
from trunco.kl import (KLPolynomial, _column, _inverse_entry,
                       base_multiplicity, block_descriptor, integral_subsystem,
                       integral_weyl_group, kl_polynomial, leaf_polynomial,
                       offset_multiplicity)
from trunco.root_datum import RootDatum, Weight, build_root_datum
from trunco.trunc_weights import TruncatedWeight
from trunco import kl, oracle

from klsolver import KLSolver
from weyl_ops import act_root, has_left_descent, inverse


def test_kl_trivial_pairs():
    group = build_root_datum("A2").weyl_group()
    w0 = group.longest_element()
    s1 = group.from_word((0,))
    assert kl_polynomial(group, w0, w0).coeffs == (1,)
    assert kl_polynomial(group, w0, s1).coeffs == ()


def test_kl_rank_two_all_one():
    for t in ("A2", "B2", "G2"):
        group = build_root_datum(t).weyl_group()
        for x in group.elements():
            for y in group.elements():
                p = kl_polynomial(group, x, y)
                if group.bruhat_leq(x, y):
                    assert p.coeffs == (1,)
                else:
                    assert p.coeffs == ()


def test_kl_first_nontrivial_polynomial():
    group = build_root_datum("A3").weyl_group()
    x = group.from_word((1,))
    y = group.from_word((1, 0, 2, 1))
    p = kl_polynomial(group, x, y)
    assert p.coeffs == (1, 1)
    assert str(p) == "1+q"
    assert p(1) == 2


def test_kl_agrees_with_bar_involution_solver_in_a3():
    group = build_root_datum("A3").weyl_group()
    solver = KLSolver(group)
    for x in group.elements():
        for y in group.elements():
            assert kl_polynomial(group, x, y).coeffs == solver.kl(x, y)


def _sample_pairs(group, count, rng):
    """(x, y) pairs: half with x below y, half drawn freely."""
    elements = group.elements()
    pairs = []
    for k in range(count):
        y = rng.choice(elements)
        if k % 2:
            x = rng.choice(elements)
        else:
            bits = group._interval(y.index)
            x = rng.choice([w for w in elements if bits >> w.index & 1])
        pairs.append((x, y))
    return pairs


def test_inversion_and_column_paths_agree():
    # P_{x,y} from the column of y, and as the (w0 y, w0 x) entry of the
    # inverse on [w0 y, w0 x], each path forced; kl_polynomial picks one
    rng = random.Random(23)
    for type_str, count in (("B3", 300), ("A4", 300), ("D4", 300), ("F4", 50)):
        group = build_root_datum(type_str).weyl_group()
        w0 = group.longest_element()
        for x, y in _sample_pairs(group, count, rng):
            direct = _column(group, y.index).get(x.index, ())
            inverted = _inverse_entry(group, group.mult(w0, y).index,
                                      group.mult(w0, x).index)
            assert inverted == direct, (type_str, x, y)
            assert kl_polynomial(group, x, y).coeffs == direct


def test_both_paths_agree_with_bar_involution_solver():
    rng = random.Random(29)
    for type_str, count in (("B3", 200), ("A4", 60), ("D4", 40), ("F4", 8)):
        group = build_root_datum(type_str).weyl_group()
        w0 = group.longest_element()
        solver = KLSolver(group)
        for x, y in _sample_pairs(group, count, rng):
            want = solver.kl(x, y)
            assert _column(group, y.index).get(x.index, ()) == want
            assert _inverse_entry(group, group.mult(w0, y).index,
                                  group.mult(w0, x).index) == want


def test_a_stored_column_is_read_before_the_shorter_end(monkeypatch):
    # P_{x,w0} for every x: after the first, the stored column of w0
    # answers, although [w0 w0, x w0] is the shorter end for x != e
    group = RootDatum(build_root_datum("B3").cartan).weyl_group()
    elements, w0 = group.elements(), group.longest_element()
    assert kl_polynomial(group, elements[0], w0).coeffs == (1,)

    def refuse(*args):
        raise AssertionError("inverted with a stored column at hand")

    monkeypatch.setattr(kl, "_inverse_entry", refuse)
    assert all(kl_polynomial(group, x, w0).coeffs == (1,) for x in elements)


def test_a_group_interned_before_it_is_listed():
    # base_multiplicity names elements of a fresh group by their vectors, in
    # no length order, without listing it.  Listing it afterwards renumbers
    # it in (length, word) order; the lengths found lazily, the values, and
    # the KL polynomials of the listed elements must all hold up.
    rng = random.Random(31)
    for type_str, count in (("B3", 60), ("A4", 40), ("D4", 30), ("F4", 8)):
        interned = build_root_datum(type_str)
        datum = RootDatum(interned.cartan)      # not interned: a fresh group
        zero = Weight((0,) * datum.rank)
        listed = integral_weyl_group(interned, zero)
        group, rho = integral_weyl_group(datum, zero), datum.rho
        values = {}
        for x, y in _sample_pairs(listed, count, rng):
            lam0, nu0 = x.act(rho) - rho, y.act(rho) - rho
            values[x.word, y.word] = base_multiplicity(datum, lam0, nu0)
        assert group._elements is None
        lazy = dict(zip(group._vecs, group.length))
        assert group.length != sorted(group.length), type_str
        elements = group.elements()
        assert [w.index for w in elements] == list(range(group.order()))
        assert [w.word for w in elements] == \
            [w.word for w in listed.elements()]
        for vec, length in lazy.items():
            assert group.length[group._ids[vec]] == length, (type_str, vec)
        solver = KLSolver(group)
        w0 = group.longest_element()
        for (x_word, y_word), value in values.items():
            x, y = group.from_word(x_word), group.from_word(y_word)
            lam0, nu0 = x.act(rho) - rho, y.act(rho) - rho
            # [M_{x.0} : L_{y.0}] = P_{y w0, x w0}(1)
            top, below = group.mult(x, w0), group.mult(y, w0)
            p = kl_polynomial(group, below, top)
            assert p.coeffs == solver.kl(below, top), (type_str, x, y)
            assert p(1) == value == base_multiplicity(datum, lam0, nu0), \
                (type_str, x, y)


def test_integral_subsystem():
    a1 = build_root_datum("A1")
    assert integral_subsystem(a1, Weight((2,)))[0] == [(1,)]
    assert integral_subsystem(a1, Weight((Fraction(1, 2),)))[0] == []
    a2 = build_root_datum("A2")
    lam = Weight((1, Fraction(1, 3)))
    positive, simples = integral_subsystem(a2, lam)
    assert positive == [(1, 0)]
    assert simples == [(1, 0)]


def test_integral_subsystem_of_an_integral_weight_is_the_whole_system():
    # integral lambda_0 skips the search for indecomposable roots
    for type_str in ("A3", "B3", "G2", "D4", "F4", "A1xA1"):
        datum = build_root_datum(type_str)
        lam0 = Weight([(-1) ** i * i for i in range(datum.rank)])
        positive, simples = integral_subsystem(datum, lam0)
        assert positive == datum.positive_roots
        roots = set(positive)
        assert simples == [r for r in positive if not any(
            tuple(a - b for a, b in zip(r, s)) in roots for s in positive)]


def test_integral_subsystem_rejects_a_rank_mismatch():
    # zip used to cut the weight short and answer anyway
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError, match="expected 2"):
        integral_subsystem(a2, Weight((1,)))


def test_block_descriptor_regular_integral():
    a2 = build_root_datum("A2")
    desc = block_descriptor(a2, Weight((0, 0)))
    assert desc.group.order() == 6
    assert desc.antidominant == Weight((-2, -2))


def test_base_multiplicity_sl2():
    a1 = build_root_datum("A1")
    alpha = a1.root_weight((1,))
    for m in range(4):
        lam = Weight((m,))
        assert base_multiplicity(a1, lam, lam) == 1
        # the other simple in the block sits at the dot reflection
        nu = lam - (m + 1) * alpha
        assert base_multiplicity(a1, lam, nu) == 1
        # intermediate weights in the root string carry no simple
        for k in range(1, m + 1):
            assert base_multiplicity(a1, lam, lam - k * alpha) == 0


def test_base_multiplicity_nonintegral_and_singular():
    a1 = build_root_datum("A1")
    alpha = a1.root_weight((1,))
    lam = Weight((Fraction(1, 2),))
    assert base_multiplicity(a1, lam, lam - alpha) == 0
    # -rho is fixed by the dot action: a singular one-element block
    lam = Weight((-1,))
    assert base_multiplicity(a1, lam, lam - alpha) == 0


def test_base_multiplicity_regular_a2_block():
    a2 = build_root_datum("A2")
    lam = Weight((0, 0))
    desc = block_descriptor(a2, lam)
    anti = desc.antidominant
    orbit = [w.act(anti + a2.rho) - a2.rho for w in desc.group.elements()]
    total = sum(base_multiplicity(a2, lam, nu) for nu in orbit)
    # one simple for each of the six Weyl chamber positions
    assert total == 6
    for nu in orbit:
        assert base_multiplicity(a2, nu, anti) == 1


# (type, lambda_0) blocks: regular, singular and non-integral
DESCENT_BLOCKS = (
    ("A2", (0, 0)), ("A2", (0, -1)), ("A2", (-1, -1)),
    ("A2", (Fraction(1, 3), Fraction(2, 3))),
    ("B2", (0, 0)), ("B2", (-1, 0)), ("B2", (Fraction(1, 2), -1)),
    ("G2", (0, 0)), ("G2", (-1, 0)), ("G2", (Fraction(1, 2), 0)),
    ("A3", (0, 0, 0)), ("A3", (-1, 0, 0)), ("A3", (0, -1, -1)),
    ("A3", (Fraction(1, 2), 0, 0)),
    ("B3", (0, 0, 0)), ("B3", (0, -1, 0)), ("B3", (0, 0, Fraction(1, 2))),
)


def _orbit_scan(datum, lam0):
    """(antidominant point, {point: longest w with w . antidominant ==
    point}) over the dot orbit of lam0, by a scan of the listed integral
    Weyl group; the antidominant point is found by its pairings."""
    group, rho = integral_weyl_group(datum, lam0), datum.rho
    positive, _ = integral_subsystem(datum, lam0)
    orbit = {w.act(lam0 + rho) for w in group.elements()}
    (anti,) = [p for p in orbit
               if all(datum.pairing(p, r) <= 0 for r in positive)]
    taking = {}
    for w in group.elements():
        taking.setdefault(w.act(anti) - rho, []).append(w)
    longest = {}
    for point, ws in taking.items():
        top = max(w.length for w in ws)
        (longest[point],) = [w for w in ws if w.length == top]
    return anti - rho, longest


def test_longest_taking_matches_brute_force():
    # the leaf names y' by its vector: y' w0 is the longest element taking
    # the antidominant point to lam0 - beta, and Q_{y,y'} = P_{y' w0, y w0},
    # against an independent solver; points outside the orbit give None
    for type_str, coords in DESCENT_BLOCKS:
        datum = build_root_datum(type_str)
        lam0 = Weight(coords)
        desc = block_descriptor(datum, lam0)
        anti, longest = _orbit_scan(datum, lam0)
        top = longest[lam0]
        assert desc.antidominant == anti and desc.top == top
        solver = KLSolver(desc.group)
        for point, w in longest.items():
            # above lam0 too: beta need not be Z>=0 for the descent
            beta = datum.root_coords(lam0 - point)
            vec, coeffs = leaf_polynomial(datum, lam0, beta)
            assert desc.listed_times_w0(vec) == w, (type_str, coords, point)
            assert coeffs == solver.kl(w, top), (type_str, coords, point)
        alpha = datum.root_weight(datum.simple_root(0))
        outside = next(m for m in range(1, 100)
                       if lam0 - m * alpha not in longest)
        assert leaf_polynomial(
            datum, lam0, (outside,) + (0,) * (datum.rank - 1)) is None
        for beta in cone(datum.rank, 3):
            if lam0 - datum.root_weight(beta) not in longest:
                assert leaf_polynomial(datum, lam0, beta) is None, \
                    (type_str, coords, beta)


TABLE_BLOCKS = DESCENT_BLOCKS + (
    ("D4", (0, 0, 0, 0)), ("D4", (0, -1, 0, 0)),
    ("D4", (Fraction(1, 2), 0, 0, 0)),
    ("F4", (0, 0, 0, 0)), ("F4", (0, 0, -1, 0)),
    ("F4", (0, 0, 0, Fraction(1, 2))),
)


def test_group_tables_match_their_definitions():
    # s_i w < w  iff  w^{-1}(beta_i) < 0; products agree with concatenated
    # words; Bruhat order agrees with the support of R (KLSolver.leq)
    rng = random.Random(3)
    for type_str, coords in TABLE_BLOCKS:
        group = integral_weyl_group(build_root_datum(type_str), Weight(coords))
        elements = group.elements()
        assert [w.index for w in elements] == list(range(group.order()))
        # the vector of w names it: a negative entry i is a left descent,
        # and w w0 is named by the negated vector
        w0 = group.longest_element()
        # listing sets l(w0); an unlisted group walks from rho to -rho
        unlisted = integral_weyl_group(RootDatum(group.datum.cartan),
                                       Weight(coords))
        assert group.longest_length == unlisted.longest_length == w0.length
        assert unlisted._elements is None
        for w in elements:
            vec = group._vecs[w.index]
            assert group._ids[vec] == w.index
            assert group._vecs[group.mult(w, w0).index] == \
                tuple(-c for c in vec)
            for i, simple in enumerate(group.simples):
                negative = all(c <= 0 for c in act_root(inverse(w), simple))
                assert has_left_descent(group, w, i) == negative, \
                    (type_str, coords, w, i)
                assert (vec[i] < 0) == negative
        for _ in range(200):
            x, y = rng.choice(elements), rng.choice(elements)
            assert group.mult(x, y) is group.from_word(x.word + y.word)
    for type_str in ("A3", "B3"):
        group = build_root_datum(type_str).weyl_group()
        solver = KLSolver(group)
        for x in group.elements():
            for y in group.elements():
                assert group.bruhat_leq(x, y) == solver.leq(x, y), \
                    (type_str, x, y)


def test_base_multiplicity_matches_module_oracle():
    cases = [("A1", [(0,), (1,), (3,)], 5),
             ("A2", [(0, 0), (1, 0), (2, 1)], 4)]
    for type_str, lams, depth in cases:
        datum = build_root_datum(type_str)
        for coords in lams:
            lam = TruncatedWeight([Weight(coords)])
            dec = oracle.verma_decomposition(datum, lam, depth)
            for beta in cone(datum.rank, depth):
                nu0 = lam[0] - datum.root_weight(beta)
                assert base_multiplicity(datum, lam[0], nu0) == \
                    dec.get(beta, 0), (type_str, coords, beta)


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A1xA1", "A3", "B3"])
def test_offset_leaf_matches_the_trace_path(type_str):
    # the untraced leaf, the traced one (its value, y and kl string) and
    # base_multiplicity against the orbit scan and an independent solver
    datum = build_root_datum(type_str)
    rng = random.Random(type_str)
    ranks, nonzero = set(), 0
    for kind in ("integral", "singular", "non-integral") * 3:
        coords = [rng.randint(-2, 2) for _ in range(datum.rank)]
        if kind == "singular":
            coords[rng.randrange(datum.rank)] = -1
        elif kind == "non-integral":
            for i in rng.sample(range(datum.rank), rng.randint(1, datum.rank)):
                coords[i] = Fraction(rng.choice((1, 2)), rng.choice((2, 3)))
        lam0 = Weight(coords)
        group = block_descriptor(datum, lam0).group
        ranks.add(len(group.simples))
        _, longest = _orbit_scan(datum, lam0)
        solver = KLSolver(group)
        for beta in rng.sample(cone(datum.rank, 4), 12):
            value = offset_multiplicity(datum, lam0, beta)
            nu0 = lam0 - datum.root_weight(beta)
            # [M_{lam0} : L_{nu0}] = P_{w, top}(1), by the orbit scan
            w = longest.get(nu0)
            want = () if w is None else solver.kl(w, longest[lam0])
            traced, node = multiplicity(MultiplicityQuery(
                datum, TruncatedWeight([lam0]), TruncatedWeight([nu0])),
                trace=True)
            assert value == traced == base_multiplicity(datum, lam0, nu0) \
                == sum(want), (coords, beta)
            if any(beta):
                assert node.details["y"] == (
                    None if w is None else list(w.word))
                assert node.details.get("kl") == (
                    None if w is None else str(KLPolynomial(want)))
            nonzero += bool(value) and any(beta)
    # full-rank and lower-rank integral groups, and values off the diagonal
    assert datum.rank in ranks and min(ranks) < datum.rank and nonzero


def test_offset_outside_the_integral_span_leaves_the_block():
    # lambda_0 = (1/2, 0): the integral group is generated by alpha_2 alone.
    # beta = alpha_1 keeps the pairing with alpha_2^vee, so the dominant
    # points agree in the group's coordinates, but lambda_0 - alpha_1 lies
    # in another block.
    datum = build_root_datum("A1xA1")
    lam0 = Weight((Fraction(1, 2), 0))
    assert offset_multiplicity(datum, lam0, (1, 0)) == 0
    assert offset_multiplicity(datum, lam0, (0, 1)) == 1
    assert base_multiplicity(datum, lam0, lam0 - datum.root_weight((1, 0))) == 0
