"""Workload definitions: inputs from a seed, the timed work, the answer check.

Each workload is a fixed piece of work run once per sample in a fresh
interpreter.  `make_inputs` runs in the benchmark process and is the only
place a seed is read; `run_work` runs in the child against the public
`trunco` API and returns the answers; `check` compares those answers with an
independent source outside the timed interval.

Weights travel as JSON lists of strings ("1/2", "-1") so that non-integral
entries survive the trip exactly.
"""

import json
import os
import random
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# engine-table: zero-tail level-1 tables with lambda_0 = 0.  The ROADMAP's
# headline tables; queries in one table share most subproblems.
TABLES = (("A3", 3), ("A4", 1), ("D4", 1))

# engine-queries: independent queries drawn from the committed pool of blocks
# in expected.json, whose values the oracle produced (see gen_expected.py).
POOL_TYPES = ("A2", "B2", "G2", "A1xA1", "A3", "B3", "A4")
QUERIES_PER_BLOCK = 4
SLOT_SEED = 0

# kl-column: P_{x,w0} for every x in W(B3); all equal 1.
KL_TYPE = "B3"
KL_GROUP_ORDER = 48          # |W(B3)| = 2^3 * 3!

# oracle-verify: the verify-suite path on four blocks.
ORACLE_BLOCKS = (
    ("A2", (("1", "1"), ("0", "0"), ("0", "0")), 6),
    ("A2", (("0", "1"), ("1", "-1")), 6),
    ("B2", (("1", "1"), ("1", "-1")), 6),
    ("A1xA1", (("0", "0"), ("0", "0"), ("0", "0")), 6),
)

SETUP_TYPES = {
    "engine-table": tuple(t for t, _ in TABLES),
    "engine-queries": POOL_TYPES,
    "kl-column": (KL_TYPE,),
    "oracle-verify": tuple(sorted({t for t, _, _ in ORACLE_BLOCKS})),
}
WORKLOADS = tuple(SETUP_TYPES)


def cone(rank, depth):
    """Nonnegative integer vectors of height <= depth, by (height, vector)."""
    out = [()]
    for _ in range(rank):
        out = [v + (c,) for v in out for c in range(depth - sum(v) + 1)]
    return sorted(out, key=lambda b: (sum(b), b))


def beta_key(beta):
    return ",".join(str(b) for b in beta)


def table_key(type_str, depth):
    return "%s/%d" % (type_str, depth)


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# -- inputs (benchmark process) ----------------------------------------------

def make_inputs(workload, seed):
    """Inputs for one run.  Only engine-queries reads the seed; the other
    three workloads are fixed objects and ignore it.

    engine-queries asks QUERIES_PER_BLOCK queries of every pool block.  Each
    query fills a fixed slot, a (height of beta, multiplicity) class of the
    block, and the seed picks the beta within that class.  Query costs are
    heavy-tailed, so picking betas freely made the work differ by about 9%
    between seeds; within a class it differs by about 3%.  Half the slots
    hold a nonzero off-diagonal entry when the block has one.
    """
    if workload != "engine-queries":
        return {}
    pool = load_expected()["engine-queries"]
    slots, rng = random.Random(SLOT_SEED), random.Random(seed)
    queries = []
    for b, block in enumerate(pool):
        rank = len(block["lam"][0])
        classes = {}
        for beta in cone(rank, block["depth"])[1:]:
            value = block["values"].get(beta_key(beta), 0)
            classes.setdefault((sum(beta), value), []).append(list(beta))
        nonzero = [k for k in classes if k[1]]
        for i in range(QUERIES_PER_BLOCK):
            if nonzero and i % 2 == 0:
                slot = slots.choice(nonzero)
            else:
                slot = slots.choice(sorted(classes))
            queries.append({"block": b, "type": block["type"], "lam": block["lam"],
                            "beta": rng.choice(classes[slot])})
    rng.shuffle(queries)
    return {"queries": queries}


# -- the work (child process) -------------------------------------------------

def _weight(trunco, coords):
    return trunco.Weight(tuple(coords))


def _truncated(trunco, comps):
    return trunco.TruncatedWeight([_weight(trunco, c) for c in comps])


def _guard(fn):
    """Run fn(); an exception becomes an "error: ..." string answer."""
    try:
        return fn()
    except Exception as exc:  # a raised answer counts as wrong
        return "error: %s: %s" % (type(exc).__name__, exc)


def run_work(workload, inputs):
    """Run one sample.  Returns (wall seconds, answers, per-query ms)."""
    import trunco
    return _WORK[workload](trunco, inputs)


def _work_engine_table(trunco, inputs):
    args = []
    for type_str, depth in TABLES:
        datum = trunco.build_root_datum(type_str)
        zero = _weight(trunco, (0,) * datum.rank)
        args.append((datum, trunco.TruncatedWeight([zero, zero]), depth))
    start = time.perf_counter()
    tables = [_guard(lambda a=a: trunco.multiplicity_table(*a)) for a in args]
    wall = time.perf_counter() - start
    answers = []
    for (datum, lam, depth), table in zip(args, tables):
        if isinstance(table, str):
            answers.append(table)
            continue
        row = {}
        for beta in cone(datum.rank, depth):
            nu0 = lam[0] - datum.root_weight(beta)
            row[beta_key(beta)] = table.pop(nu0, 0)
        # entries left over lie outside the requested cone: wrong output
        row["outside"] = len(table)
        answers.append(row)
    return wall, answers, []


def _work_engine_queries(trunco, inputs):
    queries = []
    for q in inputs["queries"]:
        datum = trunco.build_root_datum(q["type"])
        lam = _truncated(trunco, q["lam"])
        nu0 = lam[0] - datum.root_weight(q["beta"])
        nu = trunco.TruncatedWeight((nu0,) + lam.tail())
        queries.append(trunco.MultiplicityQuery(datum, lam, nu))
    answers, times = [], []
    clock = time.perf_counter
    start = clock()
    for query in queries:
        t0 = clock()
        answers.append(_guard(lambda q=query: trunco.multiplicity(q)[0]))
        times.append((clock() - t0) * 1000.0)
    wall = clock() - start
    return wall, answers, times


def _work_kl_column(trunco, inputs):
    datum = trunco.build_root_datum(KL_TYPE)
    start = time.perf_counter()
    group = datum.weyl_group()
    elements = group.elements()
    w0 = group.longest_element()
    polys = [_guard(lambda x=x: trunco.kl_polynomial(group, x, w0))
             for x in elements]
    wall = time.perf_counter() - start
    answers = [p if isinstance(p, str) else list(p.coeffs) for p in polys]
    return wall, answers, []


def _work_oracle_verify(trunco, inputs):
    from trunco import oracle
    cases = []
    for type_str, comps, depth in ORACLE_BLOCKS:
        datum = trunco.build_root_datum(type_str)
        lam = _truncated(trunco, comps)
        betas = cone(datum.rank, depth)
        nus = [trunco.TruncatedWeight((lam[0] - datum.root_weight(b),) + lam.tail())
               for b in betas]
        cases.append((datum, lam, depth, betas, nus))
    start = time.perf_counter()
    results = []
    for datum, lam, depth, betas, nus in cases:
        dec = _guard(lambda: oracle.verma_decomposition(datum, lam, depth))
        engine = [_guard(lambda nu=nu: trunco.multiplicity(
            trunco.MultiplicityQuery(datum, lam, nu))[0]) for nu in nus]
        results.append((dec, betas, engine))
    wall = time.perf_counter() - start
    answers = []
    for dec, betas, engine in results:
        for beta, value in zip(betas, engine):
            ref = dec if isinstance(dec, str) else dec.get(tuple(beta), 0)
            answers.append([ref, value])
    return wall, answers, []


_WORK = {
    "engine-table": _work_engine_table,
    "engine-queries": _work_engine_queries,
    "kl-column": _work_kl_column,
    "oracle-verify": _work_oracle_verify,
}


# -- the check (benchmark process) --------------------------------------------

def _with_missing(want, answers, failed):
    """(attempted, failed) when `want` answers were due: a missing or extra
    answer counts as wrong."""
    return max(want, len(answers)), failed + abs(want - len(answers))


def check(workload, inputs, answers, expected):
    """Return (attempted, failed) for one sample's answers.

    engine-table and engine-queries compare with committed oracle values;
    kl-column with the identity P_{x,w0} = 1; oracle-verify with the oracle
    computed in the same sample.
    """
    if workload == "engine-table":
        attempted = failed = 0
        rows = list(answers) + ["missing"] * (len(TABLES) - len(answers))
        for (type_str, depth), row in zip(TABLES, rows):
            want = expected["engine-table"][table_key(type_str, depth)]
            attempted += len(want)
            if isinstance(row, str):
                failed += len(want)
                continue
            failed += sum(row.get(k) != v for k, v in want.items())
            failed += row.get("outside", 0)
        return attempted, failed
    if workload == "engine-queries":
        pool = expected["engine-queries"]
        failed = 0
        for q, value in zip(inputs["queries"], answers):
            want = pool[q["block"]]["values"].get(beta_key(q["beta"]), 0)
            failed += value != want
        return _with_missing(len(inputs["queries"]), answers, failed)
    if workload == "kl-column":
        return _with_missing(KL_GROUP_ORDER, answers,
                             sum(p != [1] for p in answers))
    if workload == "oracle-verify":
        entries = sum(len(cone(len(comps[0]), depth))
                      for _, comps, depth in ORACLE_BLOCKS)
        return _with_missing(entries, answers, sum(
            isinstance(ref, str) or ref != value for ref, value in answers))
    raise ValueError("unknown workload %r" % workload)
