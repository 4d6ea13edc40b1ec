import gc
import itertools
import math
import random
import weakref

import pytest
from fractions import Fraction

from trunco import oracle
from trunco.characters import cone, verma_character
from trunco.engine import MultiplicityQuery
from trunco.oracle import (ChevalleyBasis, TruncatedModule, build_verma,
                           invariants_character, oracle_multiplicity,
                           simple_character, verma_decomposition)
from trunco.root_datum import Weight, build_root_datum
from trunco.trunc_weights import TruncatedWeight

import dense_oracle
from engine_reference import restrict


def _tw(*coords):
    return TruncatedWeight([Weight(c) for c in coords])


def test_chevalley_basis_builds_for_varied_types():
    # construction itself asserts the Jacobi identity on basis triples
    for t in ("A1", "A2", "B2", "G2", "A1xA1", "A3"):
        ChevalleyBasis.get(build_root_datum(t))


def test_chevalley_antisymmetry():
    chev = ChevalleyBasis.get(build_root_datum("B2"))
    basis = chev.basis_elements()
    for x in basis:
        for y in basis:
            fwd = sorted((c, e) for c, e in chev.bracket(x, y))
            rev = sorted((-c, e) for c, e in chev.bracket(y, x))
            assert fwd == rev


def test_chevalley_ef_gives_coroot():
    a2 = build_root_datum("A2")
    chev = ChevalleyBasis.get(a2)
    theta = (1, 1)
    out = dict()
    for c, el in chev.bracket(("e", theta), ("f", theta)):
        out[el] = c
    assert out == {("h", 0): 1, ("h", 1): 1}


def test_module_dimensions_match_character():
    a1 = build_root_datum("A1")
    module = build_verma(a1, _tw((0,), (0,)), 2)
    assert [module.dimension((k,)) for k in range(3)] == [1, 2, 3]
    a2 = build_root_datum("A2")
    build_verma(a2, _tw((1, 0), (0, 1)), 3)
    g2 = build_root_datum("G2")
    build_verma(g2, _tw((1, 0), (0, 1), (1, 1)), 3)


def test_weight_spaces_are_in_pbw_order():
    # act_gen keeps a monomial's generators in nondecreasing (root index,
    # degree) order, and each space lists its monomials lexicographically
    for t in ("A2", "B2", "G2"):
        datum = build_root_datum(t)
        for n in range(3):
            module = build_verma(datum, _tw(*[(0, 0)] * (n + 1)), 4)
            assert list(module.spaces) == cone(2, 4)
            for beta, space in module.spaces.items():
                assert space == sorted(space), (t, n, beta)
                assert len(set(space)) == len(space), (t, n, beta)
                for mono in space:
                    assert list(mono) == sorted(mono)
                    assert all(d <= n for _, d in mono)
                    roots = [module.chev.roots[ri] for ri, _ in mono]
                    assert tuple(sum(r[j] for r in roots)
                                 for j in range(2)) == beta


def test_module_size_budget(monkeypatch):
    from trunco import oracle
    a2 = build_root_datum("A2")
    lam = _tw((0, 0), (0, 0))
    dim = sum(map(len, TruncatedModule(a2, lam, 3).spaces.values()))
    monkeypatch.setattr(oracle, "MAX_TOTAL_DIMENSION", dim)
    TruncatedModule(a2, lam, 3)
    monkeypatch.setattr(oracle, "MAX_TOTAL_DIMENSION", dim - 1)
    with pytest.raises(ValueError, match="size budget"):
        TruncatedModule(a2, lam, 3)


def _exact_combination(rows, u):
    out = {}
    for r, cu in u.items():
        for c, v in rows.get(r, {}).items():
            out[c] = out.get(c, 0) + cu * v
    return {c: v for c, v in out.items() if v}


def test_constraint_rows_are_integer_multiples_of_exact_rows():
    # by default the helper reads the matrix's own rows; given rows u, it
    # forms u A.  Either way each row is scaled on its own to integers
    from trunco.oracle import _constraint_rows
    a2 = build_root_datum("A2")
    module = TruncatedModule(a2, _tw((Fraction(1, 3), Fraction(2, 3)), (0, 1)), 3)
    rng = random.Random(3)
    scales = set()
    for beta in module.spaces:
        for ri in range(len(module.chev.roots)):
            for deg in range(module.n + 1):
                gen = ("e", ri, deg)
                exact, target = module.generator_matrix(gen, beta)
                got = list(_constraint_rows(module, gen, beta))
                want = list(exact.values())
                if target in module.spaces:
                    dim = module.dimension(target)
                    uppers = [{r: rng.choice((-2, 1, 3))
                               for r in rng.sample(range(dim), min(2, dim))}
                              for _ in range(3)]
                    got += _constraint_rows(module, gen, beta, uppers)
                    want += filter(None, (_exact_combination(exact, u)
                                          for u in uppers))
                assert len(got) == len(want)
                for row, ref in zip(got, want):
                    assert row.keys() == ref.keys()
                    assert all(type(v) is int for v in row.values())
                    col = next(iter(row))
                    scale = Fraction(row[col]) / ref[col]
                    assert scale != 0
                    assert all(v == scale * ref[c] for c, v in row.items())
                    scales.add(abs(scale))
    assert max(scales) > 1


def test_module_relations_hold_on_weight_spaces():
    datum = build_root_datum("A2")
    lam = _tw((1, 2), (1, -1))
    module = TruncatedModule(datum, lam, 3)
    gens = [(k, ri, d) for k in ("e", "f")
            for ri in range(len(module.chev.roots)) for d in range(2)]
    gens += [("h", i, d) for i in range(2) for d in range(2)]
    rng = random.Random(5)
    betas = [b for b in module.spaces if 0 < sum(b) < 3]
    for _ in range(60):
        x = rng.choice(gens)
        y = rng.choice(gens)
        beta = rng.choice(betas)
        for mono in module.spaces[beta]:
            lhs = {}
            for m, c in module.act_gen(y, mono).items():
                for m2, c2 in module.act_gen(x, m).items():
                    lhs[m2] = lhs.get(m2, 0) + c * c2
            for m, c in module.act_gen(x, mono).items():
                for m2, c2 in module.act_gen(y, m).items():
                    lhs[m2] = lhs.get(m2, 0) - c * c2
            rhs = {}
            block = module.block
            for cb, el in block.bracket(block._code[x], block._code[y]):
                for m, c in module.act_gen(block._gens[el], mono).items():
                    rhs[m] = rhs.get(m, 0) + cb * c
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs, (x, y, mono)


def test_degree_one_cartan_acts_by_tail_weight_nilpotently():
    a1 = build_root_datum("A1")
    lam = _tw((2,), (Fraction(3, 2),))
    module = TruncatedModule(a1, lam, 3)
    for beta in module.spaces:
        dim = module.dimension(beta)
        mat, target = dense_oracle.generator_matrix(module, ("h", 0, 1), beta)
        assert target == beta
        # (h_1 - mu) is nilpotent on each weight space
        shifted = [[mat[r][c] - (lam[1].coords[0] if r == c else 0)
                    for c in range(dim)] for r in range(dim)]
        power = [[Fraction(int(r == c)) for c in range(dim)]
                 for r in range(dim)]
        for _ in range(dim):
            power = [[sum(power[r][k] * shifted[k][c] for k in range(dim))
                      for c in range(dim)] for r in range(dim)]
        assert all(x == 0 for row in power for x in row)


def test_simple_character_classical_sl2():
    a1 = build_root_datum("A1")
    for m in (0, 1, 3):
        module = TruncatedModule(a1, _tw((m,)), m + 3)
        ch = simple_character(module)
        for k in range(m + 4):
            assert ch.coefficient((k,)) == (1 if k <= m else 0)


def test_regular_tail_verma_is_simple():
    a1 = build_root_datum("A1")
    lam = _tw((4,), (Fraction(2, 3),))
    module = TruncatedModule(a1, lam, 4)
    assert simple_character(module) == verma_character(a1, lam, 4)


def test_simple_character_bounded_by_verma():
    a2 = build_root_datum("A2")
    lam = _tw((1, 1), (0, 0))
    module = TruncatedModule(a2, lam, 3)
    ch = simple_character(module)
    verma = verma_character(a2, lam, 3)
    for beta in verma.table:
        assert 0 <= ch.coefficient(beta) <= verma.coefficient(beta)
    assert ch.coefficient((0, 0)) == 1


HALF, THREE_HALVES = Fraction(1, 2), Fraction(3, 2)

# (type, components, depth) at levels 0-2: integral, singular and
# non-integral lambda_0, and tails with an entry 3/2
DENSE_CASES = (
    ("A1", ((2,),), 6),
    ("A1", ((-1,), (0,)), 6),
    ("A1", ((HALF,), (0,), (THREE_HALVES,)), 5),
    ("A2", ((Fraction(1, 3), Fraction(2, 3)),), 5),
    ("A2", ((0, -1), (0, 0)), 4),
    ("A2", ((0, 1), (1, -1)), 4),
    ("A2", ((1, 1), (0, 0), (0, 0)), 3),
    ("B2", ((HALF, -1),), 5),
    ("B2", ((1, 1), (0, 0)), 4),
    ("B2", ((-1, 0), (1, 0), (0, THREE_HALVES)), 3),
    ("G2", ((1, 0),), 5),
    ("G2", ((-1, 0), (0, 0)), 4),
    ("G2", ((HALF, 0), (0, 0), (0, 0)), 3),
    ("A1xA1", ((0, -1),), 5),
    ("A1xA1", ((HALF, 0), (THREE_HALVES, 0)), 4),
    ("A1xA1", ((0, 0), (0, 0), (1, 0)), 4),
)


@pytest.mark.parametrize("type_str, comps, depth", DENSE_CASES)
def test_sparse_eliminations_match_dense_reference(type_str, comps, depth):
    datum = build_root_datum(type_str)
    module = TruncatedModule(datum, _tw(*comps), depth)
    assert simple_character(module).table == \
        dense_oracle.simple_character(module).table
    for levi in ((), (0,)):
        assert invariants_character(module, levi).table == \
            dense_oracle.invariants_character(module, levi).table


def test_elimination_keeps_reduced_echelon_form(monkeypatch):
    # the rows the B2 module at (1,1),(1,-1), depth 6, eliminates, one list
    # per basis, then seeded random rows with repeats and multiples
    runs = []
    eliminate = oracle._eliminate

    def record(basis, row):
        if not runs or runs[-1][0] is not basis:
            runs.append((basis, []))
        runs[-1][1].append(dict(row))
        eliminate(basis, row)

    monkeypatch.setattr(oracle, "_eliminate", record)
    simple_character(TruncatedModule(build_root_datum("B2"),
                                     _tw((1, 1), (1, -1)), 6))
    monkeypatch.undo()
    batches = [rows for _, rows in runs]
    assert sum(map(len, batches)) > 500
    rng = random.Random(12)
    for _ in range(200):
        rows = []
        for _ in range(rng.randint(1, 12)):
            if rows and rng.random() < 0.2:
                k = rng.choice((-3, -1, 2, 6))
                rows.append({c: k * v for c, v in rng.choice(rows).items()})
            else:
                rows.append({c: rng.randint(-4, 4)
                             for c in rng.sample(range(8), rng.randint(0, 6))})
        batches.append(rows)
    for rows in batches:
        rows = [{c: v for c, v in row.items() if v} for row in rows]
        basis = {}
        for row in rows:
            oracle._eliminate(basis, dict(row))
        reference = dense_oracle.reduced_echelon(rows)
        assert basis.keys() == reference.keys(), rows
        for pivot, row in basis.items():
            # a positive multiple of the reference row, primitive, and
            # zero in every other pivot column
            ref = reference[pivot]
            assert row.keys() == ref.keys() and min(row) == pivot
            assert row[pivot] > 0
            assert all(v == row[pivot] * ref[c] for c, v in row.items())
            assert math.gcd(*row.values()) == 1
            assert not any(c in basis for c in row if c != pivot)


def test_dropped_module_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        module = TruncatedModule(build_root_datum("A2"), _tw((1, 0), (0, 0)), 3)
        ref = weakref.ref(module)
        simple_character(module)
        del module
        assert ref() is None
    finally:
        gc.enable()


def test_invariants_full_levi_is_whole_module():
    a2 = build_root_datum("A2")
    lam = _tw((1, 0), (0, 0))
    module = build_verma(a2, lam, 2)
    ch = invariants_character(module, (0, 1))
    assert ch == verma_character(a2, lam, 2)


def test_invariants_empty_levi_regular_tail():
    a2 = build_root_datum("A2")
    lam = _tw((1, 1), (1, 2))
    module = build_verma(a2, lam, 2)
    ch = invariants_character(module, ())
    assert ch.coefficient((0, 0)) == 1
    assert all(c == 0 for b, c in ch.table.items() if sum(b) > 0)


def test_invariants_match_levi_verma():
    a2 = build_root_datum("A2")
    lam = _tw((1, 1), (0, 1))      # tail singular exactly along alpha_1
    module = build_verma(a2, lam, 3)
    ch = invariants_character(module, (0,))
    levi = a2.sub_datum((0,))
    expected = verma_character(levi, restrict(lam, (0,)), 3)
    for beta in ch.table:
        want = expected.coefficient((beta[0],)) if beta[1] == 0 else 0
        assert ch.coefficient(beta) == want, beta


def test_oracle_multiplicity_basics():
    a1 = build_root_datum("A1")
    lam = _tw((3,), (0,))
    assert oracle_multiplicity(a1, lam, lam) == 1
    other = _tw((3,), (1,))
    assert oracle_multiplicity(a1, lam, other) == 0
    alpha = a1.root_weight((1,))
    nu = TruncatedWeight((lam[0] - 4 * alpha,) + lam.tail())
    assert oracle_multiplicity(a1, lam, nu) == 2


def test_oracle_multiplicity_depth_stability():
    a1 = build_root_datum("A1")
    lam = _tw((1,), (0,))
    alpha = a1.root_weight((1,))
    nu = TruncatedWeight((lam[0] - 2 * alpha,) + lam.tail())
    assert oracle_multiplicity(a1, lam, nu, depth=2) == \
        oracle_multiplicity(a1, lam, nu, depth=4) == 2


def test_oracle_rejects_insufficient_depth():
    a1 = build_root_datum("A1")
    lam = _tw((3,), (0,))
    alpha = a1.root_weight((1,))
    nu = TruncatedWeight((lam[0] - 3 * alpha,) + lam.tail())
    with pytest.raises(ValueError):
        oracle_multiplicity(a1, lam, nu, depth=2)


def test_verma_decomposition_reconstructs_character():
    a1 = build_root_datum("A1")
    lam = _tw((2,), (0,))
    depth = 4
    dec = verma_decomposition(a1, lam, depth)
    from trunco.oracle import _simple_char
    total = {}
    for beta, mult in dec.items():
        eta0 = lam[0] - a1.root_weight(beta)
        eta = TruncatedWeight((eta0,) + lam.tail())
        simple = _simple_char(a1, eta, depth - sum(beta))
        for gamma, dim in simple.table.items():
            key = tuple(b + g for b, g in zip(beta, gamma))
            total[key] = total.get(key, 0) + mult * dim
    verma = verma_character(a1, lam, depth)
    for beta, dim in verma.table.items():
        assert total.get(beta, 0) == dim


@pytest.mark.parametrize("type_str, coords, deep", [
    ("A2", ((1, 0), (0, 1)), 3),
    ("B2", ((1, HALF), (1, 0)), 3),
    ("A1", ((2,), (0,), (1,)), 4),
    ("A2", ((0, 0), (1, -1), (0, 0)), 2),
])
def test_simple_char_cuts_the_deepest_character(type_str, coords, deep):
    from trunco.oracle import _SIMPLE_CHAR_MEMO, _simple_char
    datum = build_root_datum(type_str)
    lam = _tw(*coords)
    _simple_char(datum, lam, deep)
    kept = _SIMPLE_CHAR_MEMO[(datum.key, lam)]
    assert kept.depth >= deep   # other tests may have asked for more
    for depth in range(deep + 1):
        fresh = simple_character(TruncatedModule(datum, lam, depth))
        cut = _simple_char(datum, lam, depth)
        assert cut.depth == depth and cut.table == fresh.table
        assert cut == fresh
    assert _SIMPLE_CHAR_MEMO[(datum.key, lam)] is kept


def test_oracle_rejects_a_rank_mismatch():
    # a 3-coordinate weight on A2 used to decompose as if it had 2
    a2 = build_root_datum("A2")
    lam = _tw((0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="expected 2"):
        verma_decomposition(a2, lam, 2)
    with pytest.raises(ValueError, match="expected 2"):
        TruncatedModule(a2, lam, 2)
    with pytest.raises(ValueError, match="expected 2"):
        TruncatedModule(a2, _tw((0,)), 1)


def test_oracle_multiplicity_checks_rank_and_level_like_the_query():
    # both used to answer 0, where MultiplicityQuery raises
    a2 = build_root_datum("A2")
    lam = _tw((1, 0), (0, 0))
    with pytest.raises(ValueError, match="expected 2"):
        MultiplicityQuery(a2, lam, _tw((1,), (0,)))
    with pytest.raises(ValueError, match="expected 2"):
        oracle_multiplicity(a2, lam, _tw((1,), (0,)))
    with pytest.raises(ValueError, match="truncation levels"):
        MultiplicityQuery(a2, lam, _tw((1, 0), (0, 0), (0, 0)))
    with pytest.raises(ValueError, match="truncation levels"):
        oracle_multiplicity(a2, lam, _tw((1, 0), (0, 0), (0, 0)))
    assert oracle_multiplicity(a2, lam, _tw((1, 0), (1, 0))) == 0


def _all_generators(module):
    return [(k, ri, d) for k in ("e", "f") for ri in range(len(module.chev.roots))
            for d in range(module.n + 1)] + \
        [("h", i, d) for i in range(module.datum.rank) for d in range(module.n + 1)]


def test_only_the_degree_zero_cartan_and_raising_actions_see_lambda_0():
    # the premise of sharing one block: at one tail, the lowering matrices
    # and every matrix of degree >= 1 are the same for any lambda_0, and
    # h_(i,0) is diagonal with entry <lambda_0 - beta, alpha_i^vee>
    a2 = build_root_datum("A2")
    tail = ((1, -1), (Fraction(1, 2), 0))
    depth = 4
    one = TruncatedModule(a2, _tw((0, 0), *tail), depth)
    two = TruncatedModule(a2, _tw((Fraction(1, 3), 2), *tail), depth)
    assert one.spaces == two.spaces
    compared = 0
    for beta in one.spaces:
        for gen in _all_generators(one):
            kind, i, deg = gen
            if kind == "f" or deg:
                assert one.generator_matrix(gen, beta) == \
                    two.generator_matrix(gen, beta), (gen, beta)
                compared += 1
            elif kind == "h":
                for module in (one, two):
                    value = (module.lam[0] - a2.root_weight(beta)).coords[i]
                    rows, target = module.generator_matrix(gen, beta)
                    assert target == beta
                    assert rows == ({k: {k: value} for k in
                                     range(module.dimension(beta))}
                                    if value else {}), (gen, beta)
    # 15 weight spaces; 9 lowering, 6 raising and 4 Cartan generators of
    # degree >= 1 each
    assert compared == 15 * 19


# (type, components, depth): non-integral lambda_0 at level 2, level 1,
# and a non-integral tail
BLOCKS = (
    ("A2", ((Fraction(1, 2), 1), (1, 0), (0, 1)), 3),
    ("B2", ((1, 0), (0, 1)), 4),
    ("G2", ((1, 0), (Fraction(1, 2), 0)), 4),
)


@pytest.mark.parametrize("type_str, comps, depth", BLOCKS)
def test_modules_built_in_one_block_equal_modules_built_alone(
        type_str, comps, depth):
    datum = build_root_datum(type_str)
    lam = _tw(*comps)
    block = oracle._Block(datum, lam.tail(), depth)
    for beta in cone(datum.rank, depth):
        eta = TruncatedWeight((lam[0] - datum.root_weight(beta),) + lam.tail())
        shallow = depth - sum(beta)
        shared = TruncatedModule(datum, eta, shallow, block)
        alone = TruncatedModule(datum, eta, shallow)
        assert shared.spaces == alone.spaces
        for gamma in alone.spaces:
            for gen in _all_generators(alone):
                assert shared.generator_matrix(gen, gamma) == \
                    alone.generator_matrix(gen, gamma), (eta, gen, gamma)
        assert simple_character(shared) == simple_character(alone)


# (type, components, depth): the four oracle-verify blocks, G2 at level 2,
# B3 and A3 with a non-integral lambda_0
ACTION_BLOCKS = (
    ("A2", ((1, 1), (0, 0), (0, 0)), 6),
    ("A2", ((0, 1), (1, -1)), 6),
    ("B2", ((1, 1), (1, -1)), 6),
    ("A1xA1", ((0, 0), (0, 0), (0, 0)), 6),
    ("G2", ((1, 0), (0, 1), (1, 1)), 4),
    ("B3", ((0, 1, 0), (1, 0, -1)), 3),
    ("A3", ((HALF, 0, 1), (0, 0, 0)), 3),
)


@pytest.mark.parametrize("type_str, comps, depth", ACTION_BLOCKS)
def test_numbered_action_matches_the_tuple_keyed_one(type_str, comps, depth):
    datum = build_root_datum(type_str)
    lam = _tw(*comps)
    module = TruncatedModule(datum, lam, depth)
    reference = dense_oracle.TupleBlock(datum, lam, depth)
    assert module.spaces == reference.spaces
    for beta in module.spaces:
        for gen in _all_generators(module):
            assert module.generator_matrix(gen, beta) == \
                reference.generator_matrix(gen, beta), (gen, beta)


def test_a_module_outside_its_block_is_refused():
    a2 = build_root_datum("A2")
    block = oracle._Block(a2, _tw((0, 0), (1, 0)).tail(), 2)
    TruncatedModule(a2, _tw((5, -1), (1, 0)), 2, block)
    for datum, lam, depth in ((a2, _tw((0, 0), (0, 1)), 2),
                              (a2, _tw((0, 0), (1, 0)), 3),
                              (build_root_datum("B2"), _tw((0, 0), (1, 0)), 2)):
        with pytest.raises(ValueError, match="block"):
            TruncatedModule(datum, lam, depth, block)


def test_the_block_is_freed_when_the_decomposition_returns(monkeypatch):
    blocks = []

    class Recorded(oracle._Block):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "_Block", Recorded)
    gc.disable()
    try:
        dec = verma_decomposition(build_root_datum("A2"),
                                  _tw((Fraction(2, 7), 1), (0, 0)), 3)
        assert dec
        assert len(blocks) == 1     # one block serves every module
        assert blocks[0]() is None
    finally:
        gc.enable()


def test_decomposition_keeps_the_size_budget(monkeypatch):
    a2 = build_root_datum("A2")
    lam = _tw((Fraction(3, 7), 0), (1, 1))
    dim = sum(map(len, TruncatedModule(a2, lam, 3).spaces.values()))
    monkeypatch.setattr(oracle, "MAX_TOTAL_DIMENSION", dim - 1)
    with pytest.raises(ValueError, match="size budget"):
        verma_decomposition(a2, lam, 3)
    monkeypatch.setattr(oracle, "MAX_TOTAL_DIMENSION", dim)
    assert verma_decomposition(a2, lam, 3)
