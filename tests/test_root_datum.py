import ast
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import time

import pytest
from fractions import Fraction

from trunco import kostant_partition
from trunco.root_datum import CartanType, RootDatum, Weight, build_root_datum

from test_hooks import _load_tracer
from weyl_ops import (act, act_root, bruhat_leq, from_word, identity,
                      inverse, order)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_root_counts():
    assert len(build_root_datum("A1").positive_roots) == 1
    assert len(build_root_datum("A2").positive_roots) == 3
    assert len(build_root_datum("B2").positive_roots) == 4
    assert len(build_root_datum("G2").positive_roots) == 6
    assert len(build_root_datum("A3").positive_roots) == 6
    assert len(build_root_datum("A1xA1").positive_roots) == 2
    for t, count in (("F4", 24), ("B7", 49), ("E6", 36), ("E7", 63),
                     ("E8", 120), ("A1xG2", 7)):
        assert len(build_root_datum(t).positive_roots) == count, t


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
    group = datum.weyl_group()
    alpha1 = datum.simple_root(0)
    # s_alpha sends alpha to -alpha
    w1 = datum.root_weight(alpha1)
    assert group.act_word((0,), w1) == -w1
    assert group.act_word_root((0,), alpha1) == (-1, 0)
    # s_1(alpha_1 + alpha_2) = alpha_2
    assert group.act_word_root((0,), (1, 1)) == (0, 1)
    # the weight and root actions agree through root_weight
    for word in ((0,), (1, 0), (0, 1, 0)):
        for root in datum.positive_roots:
            assert group.act_word(word, datum.root_weight(root)) == \
                datum.root_weight(group.act_word_root(word, root))


def test_identity_word_acts_trivially():
    datum = build_root_datum("B2")
    group = datum.weyl_group()
    v = Weight((Fraction(3, 2), Fraction(-1)))
    assert act(identity(group), v) == v


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
            assert act(inverse(w), act(w, v)) == v


def test_length_counts_inversions():
    for t in ("A2", "B2", "G2"):
        datum = build_root_datum(t)
        group = datum.weyl_group()
        for w in group.elements():
            inversions = sum(
                1 for r in datum.positive_roots
                if any(c < 0 for c in act_root(w, r)))
            assert w.length == len(w.word) == inversions


def test_longest_element():
    group = build_root_datum("A2").weyl_group()
    assert group.longest_element().length == 3
    assert order(group) == 6


def test_order_from_the_cartan_matrix_matches_listing():
    for t in ("A1", "A2", "B2", "G2", "A1xA1", "A3", "B3", "C3", "D4", "F4",
              "A1xG2"):
        group = RootDatum(build_root_datum(t).cartan).weyl_group()
        assert group.order == order(group), t
    for t, size in (("B7", 645120), ("E7", 2903040), ("E8", 696729600)):
        assert build_root_datum(t).weyl_group().order == size, t


def test_a_group_too_large_to_list_is_refused_before_the_walk():
    group = build_root_datum("B7").weyl_group()
    interned = len(group._vecs)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="645120"):
        group.elements()
    assert time.perf_counter() - start < 0.1
    assert len(group._vecs) == interned and group._elements is None


def test_check_word_refuses_a_letter_outside_the_generators():
    group = build_root_datum("A2").weyl_group()
    for word in ((-1,), (2,), (0, 5, 1)):
        with pytest.raises(ValueError, match="outside 0..1"):
            group.check_word(word)


def test_bruhat_examples():
    group = build_root_datum("A2").weyl_group()
    e = identity(group)
    s1 = from_word(group, (0,))
    s1s2 = from_word(group, (0, 1))
    s2s1 = from_word(group, (1, 0))
    for w in group.elements():
        assert bruhat_leq(group, e, w)
        assert bruhat_leq(group, w, w)
    assert bruhat_leq(group, s1, s1s2)
    assert not bruhat_leq(group, s2s1, s1s2)


def test_bruhat_is_a_partial_order():
    for t in ("A2", "B2", "A3"):
        group = build_root_datum(t).weyl_group()
        elements = group.elements()
        for x in elements:
            for y in elements:
                if bruhat_leq(group, x, y) and bruhat_leq(group, y, x):
                    assert x == y
        rng = random.Random(1)
        for _ in range(300):
            x, y, z = (rng.choice(elements) for _ in range(3))
            if bruhat_leq(group, x, y) and bruhat_leq(group, y, z):
                assert bruhat_leq(group, x, z)


def test_bruhat_respects_length():
    group = build_root_datum("B2").weyl_group()
    for x in group.elements():
        for y in group.elements():
            if bruhat_leq(group, x, y):
                assert x.length <= y.length or x == y


def test_dominance_examples():
    a1 = build_root_datum("A1")
    lam = Weight((Fraction(5),))
    assert a1.dominance_offset(lam, lam) == (0,)
    assert a1.dominance_offset(lam - a1.root_weight((1,)), lam) == (1,)
    assert a1.dominance_offset(lam, lam - a1.root_weight((1,))) is None
    a2 = build_root_datum("A2")
    hi = Weight((0, 0))
    lo = hi - a2.root_weight((0, 1))
    offset = a2.dominance_offset(lo, hi)
    assert offset == (0, 1)
    # alpha_2 is not a combination of alpha_1 alone, and is one of alpha_2
    assert offset[1] and not offset[0]


def test_dominance_offset_matches_root_coords():
    # upper - lower is built as a known rational combination of simples;
    # the offset is that combination exactly when it is integral and >= 0,
    # and it vanishes off a set of simples exactly when that combination does
    rng = random.Random(5)
    for type_str in ("A2", "B2", "G2", "A1xA1", "A3", "B3"):
        datum = build_root_datum(type_str)
        for _ in range(60):
            lower = Weight(tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                                 for _ in range(datum.rank)))
            den = rng.choice((1, 1, 2, 3))
            beta = tuple(Fraction(rng.randint(-1, 3), den)
                         for _ in range(datum.rank))
            upper = lower + datum.root_weight(beta)
            indices = rng.choice((None, tuple(sorted(rng.sample(
                range(datum.rank), rng.randint(0, datum.rank))))))
            support = range(datum.rank) if indices is None else indices
            offset = datum.dominance_offset(lower, upper)
            if all(c.denominator == 1 and c >= 0 for c in beta):
                assert offset == beta
                assert all(type(c) is int for c in offset)
                assert all(c == 0 for j, c in enumerate(offset)
                           if j not in support) == all(
                    c == 0 for j, c in enumerate(beta) if j not in support)
            else:
                assert offset is None


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


def test_sub_datum_refuses_bad_indices():
    # a negative index would read a simple from the end of the rows
    a2 = build_root_datum("A2")
    for bad in ((-1,), (5,), (2,), (0, 0), (1, 0, 1)):
        with pytest.raises(ValueError, match="Levi indices"):
            a2.sub_datum(bad)
    assert a2.sub_datum([1, 0]) is a2 and a2.sub_datum(()).rank == 0


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
            got = datum.root_coords(w)
            inside = all(c == 0 for j, c in enumerate(x) if j not in subset)
            assert all(c == 0 for j, c in enumerate(got)
                       if j not in subset) == inside, (t, subset, x)
            assert got == tuple(x), (t, x)
            if not inside:
                continue
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
    # vectors of the wrong rank: zip would truncate them
    with pytest.raises(ValueError):
        kostant_partition(a2, (2,))
    with pytest.raises(ValueError):
        a2.partitions.count((1, 1, 1))
    with pytest.raises(ValueError):
        a2.pairing(Weight((5,)), (1, 1))
    with pytest.raises(ValueError):
        a2.root_weight((1,))
    with pytest.raises(ValueError):
        a2.root_weight((1, 0, 0))
    # the empty Levi's rank-0 datum counts the empty offset once
    assert a2.sub_datum(()).partitions.count(()) == 1


def test_weights_of_unequal_lengths_do_not_add():
    # zip used to truncate the longer weight: (1, 2) + (1,) gave (2)
    long, short = Weight((1, 2)), Weight((1,))
    for a, b in ((long, short), (short, long)):
        with pytest.raises(ValueError, match="unequal lengths"):
            a + b
        with pytest.raises(ValueError, match="unequal lengths"):
            a - b
    assert long + Weight((0, 1)) == Weight((1, 3))
    assert long - Weight((1, 2)) == Weight((0, 0))


def test_guards_survive_optimized_mode():
    code = textwrap.dedent("""
        from trunco import kostant_partition
        from trunco.root_datum import RootDatum, Weight, build_root_datum
        assert False, "asserts are live: not running under -O"
        a2 = build_root_datum("A2")
        calls = [lambda: a2.pairing(Weight((1, 1)), (2, 0)),
                 lambda: a2.coroot_coords((1, 2)),
                 lambda: a2.root_coords(Weight((1,))),
                 lambda: RootDatum([[2, 2], [2, 2]]),
                 lambda: Weight((0.5,)),
                 lambda: kostant_partition(a2, (2,)),
                 lambda: a2.partitions.count((1, 1, 1)),
                 lambda: a2.pairing(Weight((5,)), (1, 1)),
                 lambda: a2.root_weight((1,)),
                 lambda: a2.root_weight((1, 0, 0))]
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


def test_package_root_loads_only_the_engine():
    # the oracle and its Chevalley basis load on request, and no module of
    # the package needs dataclasses (or the inspect module it pulls in);
    # -S keeps site's own imports out of the check
    code = textwrap.dedent("""
        import json, sys
        import trunco, trunco.cli
        loaded = [name for name in ("dataclasses", "inspect", "trunco.oracle",
                                    "trunco.chevalley") if name in sys.modules]
        from trunco import oracle
        a2 = trunco.build_root_datum("A2")
        lam = trunco.TruncatedWeight([trunco.Weight((1, 0)),
                                      trunco.Weight((1, -1))])
        nu = trunco.TruncatedWeight([trunco.Weight((-1, -2)),
                                     trunco.Weight((1, -1))])
        query = trunco.MultiplicityQuery(a2, lam, nu)
        print(json.dumps([loaded, trunco.multiplicity(query)[0],
                          oracle.oracle_multiplicity(a2, lam, nu)]))
        """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, value, check = json.loads(proc.stdout)
    assert loaded == []
    assert value == check == 1


# functions that nothing in the package calls, kept for a caller outside it
_UNREFERENCED = {
    # the oracle's tuple-keyed action, which the dense-oracle tests compare
    ("oracle.py", "TruncatedModule.act_gen"),
    # the benchmark's kl-column workload takes P_{x, w0} for every x
    ("root_datum.py", "ReflectionGroup.longest_element"),
}


def _definitions(node, prefix=""):
    """(qualified name, node) of every function and method under node,
    nested ones included."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name + "."
            if isinstance(child, ast.FunctionDef):
                yield name[:-1], child
        yield from _definitions(child, name)


def test_every_export_is_used_in_the_package():
    # An exported name, function or method that no other part of the
    # package refers to is dead code, unless the benchmark's tracer hooks
    # it or `_UNREFERENCED` says who calls it.  Dunder methods are called
    # by the language.
    init = SRC / "trunco" / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    refs = {}           # name -> the nodes that refer to it
    defs = []
    for path in sorted((SRC / "trunco").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs += [(path.name, name, node) for name, node in _definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    assert sorted(exported - set(refs)) == []
    hooked = {(module + ".py", attr)
              for module, attr, _ in _load_tracer().HOOKS}
    unused = []
    for file, name, node in defs:
        short = name.rsplit(".", 1)[-1]
        if (short.startswith("__") and short.endswith("__")
                or (file, name) in hooked | _UNREFERENCED):
            continue
        own = set(map(id, ast.walk(node)))
        if all(id(ref) in own for ref in refs.get(short, ())):
            unused.append("%s:%d %s" % (file, node.lineno, name))
    assert unused == []


def test_no_assert_statements_in_package():
    # python -O strips assert statements; every check must raise instead.
    # The package reads no environment variables either: no hidden options.
    # Arithmetic is exact: no float literal and no float() call.
    env = {"environ", "getenv"}
    found = []
    for path in sorted((SRC / "trunco").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append("%s:%d float %r" % (path.name, node.lineno, node.value))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append("%s:%d float()" % (path.name, node.lineno))
            elif (isinstance(node, ast.Attribute) and node.attr in env
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append("%s:%d os.%s" % (path.name, node.lineno, node.attr))
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and env & {alias.name for alias in node.names}):
                found.append("%s:%d from os import" % (path.name, node.lineno))
    assert found == []


def test_kl_layer_runs_on_integers():
    # The KL layer decides block membership from its descents, in integers:
    # it imports neither rational numbers nor the rational linear algebra.
    path = SRC / "trunco" / "kl.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {getattr(node, "module", None)}
            names |= {alias.name for alias in node.names}
            found += ["kl.py:%d %s" % (node.lineno, name) for name in
                      sorted(names & {"fractions", "linalg"})]
    assert found == []


def test_no_module_level_caches_in_package():
    # A table that a Cartan matrix determines belongs to its interned
    # RootDatum.  A module-level empty dict is a cache outside any datum;
    # only the per-query memos, keyed by value, may be one.
    allowed = {("oracle.py", "_SIMPLE_CHAR_MEMO"), ("oracle.py", "_DECOMP_MEMO")}
    found = []
    for path in sorted((SRC / "trunco").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            empty = ((isinstance(value, ast.Dict) and not value.keys)
                     or (isinstance(value, ast.Call)
                         and isinstance(value.func, ast.Name)
                         and value.func.id == "dict"
                         and not value.args and not value.keywords))
            for target in targets:
                name = target.id if isinstance(target, ast.Name) else None
                if empty and (path.name, name) not in allowed:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []
