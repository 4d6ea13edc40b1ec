"""Smoke test of the benchmark itself (not collected by the repo's pytest).

    python3 -m unittest perfbench/smoke.py      # from the repository root

Takes about a minute: every workload runs once untraced, the two
cheapest run once traced.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.config = json.load(fh)

    def assert_emits(self, workload, trace, declared):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, unit in declared.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float))
        self.assertIn("error_rate", proc.stdout)
        return result["metrics"]

    def test_config_matches_workloads_and_units(self):
        self.assertLessEqual({w["name"] for w in self.config["workloads"]},
                             set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.config["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.config["per_layer"]},
                         run.per_layer_units())

    def test_end_to_end_names_emitted(self):
        declared = {m["name"]: m["unit"] for m in self.config["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.assert_emits(workload, 0, declared)
                for name in declared:
                    self.assertGreater(metrics[name]["value"], 0)

    def test_per_layer_names_emitted(self):
        declared = {m["name"]: m["unit"] for m in self.config["per_layer"]}
        for workload, busiest in (("kl-column", "kl.kl_polynomial"),
                                  ("engine-queries", "engine")):
            with self.subTest(workload=workload):
                metrics = self.assert_emits(workload, 1, declared)
                self.assertGreater(metrics[busiest + ".calls"]["value"], 0)
                self.assertGreater(metrics["trace.top_coverage"]["value"], 0.95)

    def test_planted_wrong_value_raises_error_rate(self):
        inputs = workloads.make_inputs("engine-queries", 3)
        runner = run.Runner(ROOT, "engine-queries",
                            time.monotonic() + run.RUN_BUDGET_S)
        answers = runner.sample(inputs, False)["answers"]
        expected = workloads.load_expected()
        self.assertEqual(workloads.check("engine-queries", inputs, answers,
                                         expected), (len(answers), 0))
        first = inputs["queries"][0]
        values = expected["engine-queries"][first["block"]]["values"]
        key = workloads.beta_key(first["beta"])
        values[key] = values.get(key, 0) + 1
        attempted, failed = workloads.check("engine-queries", inputs, answers,
                                            expected)
        self.assertGreaterEqual(failed, 1)
        self.assertGreater(failed / attempted, 0)

    def test_missing_hook_target_fails_loudly(self):
        import trunco.kl
        with self.assertRaises(AttributeError):
            tracer._resolve(trunco.kl, "no_such_function")

    def test_refuses_without_program(self):
        bare = os.path.join(HERE, "out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            argv = [sys.executable, os.path.join("perfbench", "run.py"),
                    "--workload", "kl-column", "--seed", "1", "--seconds", "1",
                    "--trace", "0"]
            proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True,
                                  timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
