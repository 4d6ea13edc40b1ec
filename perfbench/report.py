"""Repeat run.py over seeds and summarise every workload in one table.

    python3 perfbench/report.py --seeds 10 --trace --out perfbench/baseline.json

Run from the repository root.  Each workload runs once per seed (seeds
1 .. --seeds) at BENCHMARK.json's run_seconds, untraced, one run at a time.
For each end-to-end metric the report gives the median, the quartiles of
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median that the
metric's bound is judged against, plus error_rate over all answers.  --trace
adds one traced run per workload on the first seed and prints its per-layer
table, largest self time first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def bench_config(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(argv), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values, unit):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    root = os.getcwd()
    config = bench_config(root)
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    report = {"env": run.environment(root), "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "end_to_end": {}}
        print("## %s (%d runs, error_rate %g: %d of %d)"
              % (workload, len(seeds), failed / attempted, failed, attempted))
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in results],
                          results[0]["metrics"][name]["unit"])
            entry["end_to_end"][name] = s
            print("| %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f |"
                  % (name, s["unit"], s["median"], s["q1"], s["q3"], s["spread"],
                     bounds[name]))
        if args.trace:
            traced = run_once(workload, seeds[0], seconds, 1)
            layers = traced["metrics"]
            entry["per_layer"] = {k: v["value"] for k, v in layers.items()}
            print("\n| layer | calls | s | self_s |")
            print("|---|---|---|---|")
            names = [k[:-len(".self_s")] for k in layers if k.endswith(".self_s")]
            for name in sorted(names, key=lambda n: -layers[n + ".self_s"]["value"]):
                print("| %s | %d | %.3f | %.3f |"
                      % (name, layers[name + ".calls"]["value"],
                         layers[name + ".s"]["value"],
                         layers[name + ".self_s"]["value"]))
            print("\nother: " + ", ".join(
                "%s %.4g" % (k, v["value"]) for k, v in layers.items()
                if not k.endswith((".calls", ".s", ".self_s"))))
        print()
        sys.stdout.flush()
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
