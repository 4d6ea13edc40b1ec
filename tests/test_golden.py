"""CLI output stays byte-identical to a committed reference.

`golden_cli.json` holds the stdout of `mult --json --trace` (twisted,
non-integral, level-2 and KL-base queries on A2, B2, G2 and A3; level-0
leaves on B3 with `kl` strings "1+q", "1" and "0"; an A1xA1 leaf with
`y_max` null, its offset outside the integral span), `table --json`, and
`kl --json` on B3 and on D4 (one pair read by inversion near `w0`, one
from a column).  The first cases were produced before the KL layer learned
to invert short Bruhat intervals; the B3 leaves, the A1xA1 leaf and the D4
pairs before the traced leaf printed the engine's own descent and
polynomial instead of recomputing them.  Polynomial strings must not move
with such changes.  Trace words and Levis moved once on purpose, when the
twist became the walk toward the dominant chamber and an integral leaf's
letters became the datum's own; no value moved with them.  The level-0
leaves moved once more, when the leaf became P_{y, y'_max}(1) in the
dominant convention instead of the inverse polynomial Q_{y,y'}(1): a
traced leaf now prints `dominant`, `y`, `y_max` and `kl`, four A3 and B3
`mult --trace` values moved to the oracle's (A3 17 -> 16 and 9 -> 8, B3
3 -> 2 and 2 -> 1), and one value of `trace_queries` moved (F4 level 0,
[-2,3,-6,5] over [-4,7,-10,2], 3 -> 2: P_{y, y'_max} = 1+q by
tests/klsolver.py), so `VALUE_DIGEST` moved with it.

`golden_traces.json` holds one short digest of the untraced value and the
traced JSON of each of about a thousand seeded `mult` queries
(`trace_queries`: A1 to F4 and A1xA1, levels 0-2, integral, singular and
non-integral lambda_0), so a moved trace names its query.  Regenerate it
only when a change of output is meant: `PYTHONPATH=src python3
tests/test_golden.py`.  The values alone are pinned apart from the traces,
by `VALUE_DIGEST`, which that command never rewrites: a change of trace
format must leave it as it is.

Both files moved once, with no value, when the engine began to fold the
tail components under the top that restrict to zero on the Levi into one
level: such a reduce node prints `folded_levels` k, the k-fold partition
counts and, as children, the nodes k levels down.  In `golden_cli.json`
five `mult --trace` cases moved, those with a zero component under the
top (A2, B2, G2 and two A3).  In `golden_traces.json` 138 of the 1047
entries moved (139 of the 1100 queries): 33 fold on a nonempty Levi, and
the other 105 have a regular top component, whose empty Levi folds every
level below it.
"""

import collections
import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from trunco import kl
from trunco.characters import cone
from trunco.cli import main
from trunco.engine import MultiplicityQuery, multiplicity
from trunco.root_datum import Weight, build_root_datum
from trunco.trunc_weights import TruncatedWeight, shifted_dot

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_unchanged(capsys, case):
    assert main(list(case["argv"])) == 0
    assert capsys.readouterr().out == case["stdout"]


# -- traced engine queries ----------------------------------------------

TRACE_TYPES = ("A1", "A2", "B2", "G2", "A1xA1", "A3", "B3", "C3", "D4", "F4")
TRACE_PATH = pathlib.Path(__file__).resolve().parent / "golden_traces.json"


def _coordinate(rng, fractions):
    if fractions and rng.random() < 0.4:
        return Fraction(rng.choice((-1, 1, 2)), rng.choice((2, 3)))
    return rng.randint(-2, 2)


def trace_queries(per_type=110, seed=19):
    """Seeded (type, lambda, nu) queries: levels 0-2, lambda_0 integral,
    singular or non-integral, nu_0 = lambda_0 - beta in the block and a
    few outside it."""
    rng = random.Random(seed)
    queries = []
    for type_str in TRACE_TYPES:
        datum = build_root_datum(type_str)
        for k in range(per_type):
            level = k % 3
            lam0 = [_coordinate(rng, k % 2) for _ in range(datum.rank)]
            if k % 5 == 0:
                lam0[rng.randrange(datum.rank)] = -1
            if k % 4 == 0:
                # a dot image of 0, where KL polynomials need not be 1
                down = tuple(rng.randrange(datum.rank) for _ in range(6))
                zero = Weight((0,) * datum.rank)
                lam0 = shifted_dot(datum, down, zero, 0).coords
            tail = [Weight([rng.randint(-2, 2) for _ in range(datum.rank)])
                    for _ in range(level)]
            lam = TruncatedWeight([Weight(lam0)] + tail)
            # half the offsets reach a dot image of lambda_0 when they can
            word = tuple(rng.randrange(datum.rank) for _ in range(k % 9))
            beta = datum.dominance_offset(
                shifted_dot(datum, word, lam[0], level), lam[0])
            if k % 2 or beta is None:
                beta = rng.choice(cone(datum.rank, 3 if datum.rank > 2 else 4))
            nu_tail = list(tail)
            if level and k % 17 == 0:
                nu_tail[-1] = nu_tail[-1] + datum.rho
            nu = TruncatedWeight([lam[0] - datum.root_weight(beta)] + nu_tail)
            queries.append((type_str, lam, nu))
    return queries


def trace_digest(datum, lam, nu):
    """A short digest of the untraced value and the traced JSON."""
    query = MultiplicityQuery(datum, lam, nu)
    value, _ = multiplicity(query)
    _, trace = multiplicity(query, trace=True)
    text = json.dumps([value, trace.to_dict()], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _label(type_str, lam, nu):
    return "%s %s %s" % (type_str, lam, nu)


def test_traced_queries_are_unchanged():
    want = json.loads(TRACE_PATH.read_text())
    got = {_label(*q): trace_digest(build_root_datum(q[0]), q[1], q[2])
           for q in trace_queries()}
    assert len(got) >= 1000 and set(got) == set(want)
    moved = [label for label in got if got[label] != want[label]]
    assert moved == [], "%d traces moved, first: %s" % (len(moved), moved[:5])


# sha256 of the untraced values of `trace_queries()`, joined by "|"
VALUE_DIGEST = "0db68d53ec4b7826"


def test_untraced_values_are_unchanged():
    values = [multiplicity(MultiplicityQuery(build_root_datum(t), lam, nu))[0]
              for t, lam, nu in trace_queries()]
    text = "|".join(str(v) for v in values)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == VALUE_DIGEST


def _leaves(node):
    if node.kind == "base" and "y" in node.details:
        yield node
    for child in node.children:
        yield from _leaves(child)


def test_traced_leaf_words_are_reduced_and_name_the_leaf_vectors():
    # every leaf of the level-0 queries: y takes the printed dominant point
    # d to lambda_0 + rho, y_max takes it to nu_0 + rho, each word is
    # reduced, and y_max is longest in its coset: every generator fixing d
    # shortens it on the right
    counts = collections.Counter()
    for type_str, lam, nu in trace_queries():
        if lam.level:
            continue
        datum = build_root_datum(type_str)
        _, node = multiplicity(MultiplicityQuery(datum, lam, nu), trace=True)
        desc = kl.block_descriptor(datum, lam[0])
        group, length = desc.group, desc.group.length
        for leaf in _leaves(node):
            d, y_max = leaf.details["dominant"], leaf.details["y_max"]
            fixing = [i for i, c in enumerate(d) if c == 0]
            counts[y_max is not None, bool(fixing)] += 1
            assert d == list(desc.dominant)
            for word, weight in ((leaf.details["y"], lam[0]), (y_max, nu[0])):
                if word is None:
                    continue
                assert length[group._apply(word, 0)] == len(word)
                assert group.act_word(word, Weight(d)).coords == tuple(
                    datum.pairing(weight + datum.rho, b) for b in desc.simples)
            for i in fixing if y_max is not None else ():
                assert length[group._apply(y_max + [i], 0)] == len(y_max) - 1
    assert min(counts.values()) > 10 and len(counts) == 4, counts


if __name__ == "__main__":
    TRACE_PATH.write_text(json.dumps(
        {_label(*q): trace_digest(build_root_datum(q[0]), q[1], q[2])
         for q in trace_queries()}, indent=0, sort_keys=True) + "\n")
