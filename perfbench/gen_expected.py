"""Regenerate expected.json: the oracle's values for the engine workloads.

    PYTHONPATH=src python3 perfbench/gen_expected.py

Run from the repository root.  The oracle builds each truncated Verma
module explicitly, independent of the engine's KL machinery, so these values
check the engine.  The engine-queries pool is fixed by POOL_SEED; the
benchmark's --seed only chooses queries from it.  Building the pool takes a
few minutes; the per-type depths keep the oracle affordable.
"""

import json
import random
import sys
import time
from fractions import Fraction

import trunco
from trunco import (MultiplicityQuery, TruncatedWeight, build_root_datum,
                    multiplicity, oracle)

import workloads as wl

POOL_SEED = 20260417
POOL_BLOCKS_PER_TYPE = 24
POOL_DEPTH = {("A2", 1): 6, ("B2", 1): 5, ("G2", 1): 4, ("A1xA1", 1): 6,
              ("A3", 1): 4, ("B3", 1): 3, ("A4", 1): 3,
              ("A2", 2): 4, ("B2", 2): 4, ("G2", 2): 3, ("A1xA1", 2): 5,
              ("A3", 2): 3, ("B3", 2): 2, ("A4", 2): 2}


def pool_blocks():
    """(type, lambda as strings, depth) for every block of the pool.

    Tails have small entries with many zeros, so many top components are
    singular along a non-standard set of roots and need a twist; about 40%
    of the lambda_0 have one entry with denominator 2 or 3.  The top component
    is never zero: zero-tail blocks need no twist, and engine-table covers
    them.
    """
    rng = random.Random(POOL_SEED)
    blocks = []
    for type_str in wl.POOL_TYPES:
        rank = build_root_datum(type_str).rank
        for _ in range(POOL_BLOCKS_PER_TYPE):
            level = rng.choice((1, 2))
            lam0 = [Fraction(rng.randint(-2, 3)) for _ in range(rank)]
            if rng.random() < 0.4:
                lam0[rng.randrange(rank)] = Fraction(
                    rng.choice((-2, -1, 1, 2)), rng.choice((2, 3)))
            tail = [[rng.choice((-1, 0, 0, 1)) for _ in range(rank)]
                    for _ in range(level)]
            while not any(tail[-1]):
                tail[-1] = [rng.choice((-1, 0, 0, 1)) for _ in range(rank)]
            comps = [[str(c) for c in lam0]] + [[str(c) for c in t] for t in tail]
            blocks.append((type_str, comps, POOL_DEPTH[(type_str, level)]))
    return blocks


def decompose(type_str, comps, depth):
    datum = build_root_datum(type_str)
    lam = wl._truncated(trunco, comps)
    dec = oracle.verma_decomposition(datum, lam, depth)
    mismatches = 0
    for beta in wl.cone(datum.rank, depth):
        nu = TruncatedWeight((lam[0] - datum.root_weight(beta),) + lam.tail())
        value, _ = multiplicity(MultiplicityQuery(datum, lam, nu))
        mismatches += value != dec.get(beta, 0)
    return datum, dec, mismatches


def main():
    out = {"engine-table": {}, "engine-queries": []}
    for type_str, depth in wl.TABLES:
        rank = build_root_datum(type_str).rank
        comps = [["0"] * rank, ["0"] * rank]
        datum, dec, bad = decompose(type_str, comps, depth)
        out["engine-table"][wl.table_key(type_str, depth)] = {
            wl.beta_key(b): dec.get(b, 0) for b in wl.cone(datum.rank, depth)}
        print("table %s depth %d: engine mismatches %d" % (type_str, depth, bad),
              file=sys.stderr)
    for type_str, comps, depth in pool_blocks():
        print("block %s %s depth %d ..." % (type_str, comps, depth),
              file=sys.stderr, flush=True)
        started = time.perf_counter()
        datum, dec, bad = decompose(type_str, comps, depth)
        out["engine-queries"].append({
            "type": type_str, "lam": comps, "depth": depth,
            "values": {wl.beta_key(b): m for b, m in sorted(dec.items()) if m}})
        print("   %.1f s, %d nonzero, engine mismatches %d"
              % (time.perf_counter() - started, len(dec), bad),
              file=sys.stderr, flush=True)
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
