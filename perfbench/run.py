"""Benchmark for trunco: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload engine-table --seed 1 --seconds 20 --trace 0

Run from the repository root; trunco is imported from ./src.  Every sample
runs in a fresh interpreter, one child at a time, because the module-global
memos in engine, kl, characters and oracle never clear: a second sample in
one process would time dictionary hits.  A run takes at least one sample,
and another while one as long as the last would end nearer to --seconds
than stopping now, so a run measures about --seconds of work.
Answers are checked after each sample, outside its timed interval.

--trace 0 reports the end-to-end metrics, each the median over the run:
wall_s of the samples, setup_s of at least SETUP_SAMPLES set-ups (a fresh
interpreter that imports trunco and builds the workload's root data, one
before each sample) and peak_rss_mb of the samples.  --trace 1 alternates
untraced and traced samples and reports the per-layer metrics of tracer.py,
the tracing overhead and per-query timings.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0     # every child must finish inside this, from start
SETUP_CODE = "import sys, trunco\nfor t in sys.argv[1:]: trunco.build_root_datum(t)"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for layer in tracer.LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".s"] = "s"
        units[layer + ".self_s"] = "s"
    for layer in tracer.DISTINCT_KEYS:
        units[layer + ".distinct_frac"] = "ratio"
    units.update({
        "engine.query_p50_ms": "ms", "engine.query_p95_ms": "ms",
        "oracle.module_dim": "count", "linalg.row_echelon.cells": "count",
        "trace.overhead_frac": "ratio", "trace.top_coverage": "ratio",
    })
    return units


class BenchError(Exception):
    """A run that cannot produce a result: no program, a crashed child."""


def environment(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=root, env=env, capture_output=True, text=True,
                             timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        describe = "git unavailable"
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git": describe}


class Runner:
    def __init__(self, root, workload, deadline):
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "trunco", "__init__.py")):
            raise BenchError("no trunco sources under %s" % src)
        self.root, self.workload, self.deadline = root, workload, deadline
        path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        PERFBENCH_SRC=src)

    def _run(self, argv, stdin=None):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget of %.0f s used up" % RUN_BUDGET_S)
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                                  cwd=self.root, env=self.env, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("child exceeded the time budget") from exc
        if proc.returncode != 0:
            raise BenchError("child failed (exit %d):\n%s"
                             % (proc.returncode, proc.stderr))
        return proc.stdout

    def setup(self):
        """Seconds for a fresh interpreter to import trunco and build the
        workload's root data."""
        start = time.perf_counter()
        self._run([sys.executable, "-c", SETUP_CODE]
                  + list(workloads.SETUP_TYPES[self.workload]))
        return time.perf_counter() - start

    def sample(self, inputs, trace, spans_path=None):
        request = {"workload": self.workload, "inputs": inputs, "trace": trace,
                   "spans_path": spans_path}
        out = self._run([sys.executable, CHILD], json.dumps(request))
        return json.loads(out.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _query_percentiles(samples):
    p50, p95 = [], []
    for s in samples:
        if len(s["query_ms"]) >= 2:
            p50.append(statistics.median(s["query_ms"]))
            p95.append(statistics.quantiles(s["query_ms"], n=100)[94])
    return _median(p50), _median(p95)


def measure(runner, inputs, seconds, trace):
    """Run samples for `seconds`.  Returns (metrics, untraced samples,
    traced samples, answers attempted, answers failed)."""
    expected = workloads.load_expected()
    attempted = failed = 0
    plain, traced = [], []

    def take(traced_sample):
        nonlocal attempted, failed
        spans = None
        if traced_sample:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, "trace-%s.json" % runner.workload)
        s = runner.sample(inputs, traced_sample, spans)
        a, f = workloads.check(runner.workload, inputs, s.pop("answers"), expected)
        attempted += a
        failed += f
        (traced if traced_sample else plain).append(s)

    metrics = {}
    start, last = time.monotonic(), 0.0

    def time_left():
        # another sample like the last ends nearer to `seconds` than now
        return time.monotonic() - start + last / 2 <= seconds

    if not trace:
        setups = []
        while not plain or time_left():
            t0 = time.monotonic()
            setups.append(runner.setup())
            take(False)
            last = time.monotonic() - t0
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.setup())
        metrics["wall_s"] = _median([s["wall_s"] for s in plain])
        metrics["setup_s"] = _median(setups)
        metrics["peak_rss_mb"] = _median([s["peak_rss_mb"] for s in plain])
        units = END_TO_END
    else:
        while not traced or time_left():
            t0 = time.monotonic()
            take(len(plain) > len(traced))
            last = time.monotonic() - t0
        for name in traced[0]["layers"]:
            metrics[name] = _median([s["layers"][name] for s in traced])
        traced_wall = _median([s["wall_s"] for s in traced])
        metrics["trace.overhead_frac"] = traced_wall / _median(
            [s["wall_s"] for s in plain]) - 1.0
        metrics["trace.top_coverage"] = _median(
            [s["top_s"] / s["wall_s"] for s in traced])
        metrics["engine.query_p50_ms"], metrics["engine.query_p95_ms"] = \
            _query_percentiles(plain)
        units = per_layer_units()
    missing = set(units) ^ set(metrics)
    if missing:
        raise BenchError("metrics out of step with their units: %s" % sorted(missing))
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return result, plain, traced, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        runner = Runner(root, args.workload, deadline)
        inputs = workloads.make_inputs(args.workload, args.seed)
        metrics, plain, traced, attempted, failed = measure(
            runner, inputs, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    env = environment(root)
    seeded = "" if args.workload == "engine-queries" else " (fixed object; seed unused)"
    print("# workload %s, seed %d%s, %d s, trace %d"
          % (args.workload, args.seed, seeded, args.seconds, args.trace))
    print("# python %s, nproc %d, git %s" % (env["python"], env["nproc"], env["git"]))
    for kind, samples in (("untraced", plain), ("traced", traced)):
        if samples:
            print("# %d %s samples, wall s: %s" % (len(samples), kind, " ".join(
                "%.3f" % s["wall_s"] for s in samples)))
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g ratio  (%d of %d answers wrong or raised)"
          % ("error_rate", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
