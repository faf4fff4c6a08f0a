"""Self-test of the benchmark with tiny budgets (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
traced and untraced, that a corrupted solution trips the correctness
check, and that the command fails without a result when the program's
sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def check_metrics(self, trace, section):
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        for name in WORKLOADS:
            with self.subTest(workload=name, trace=trace):
                proc = bench("--workload", name, "--seed", "5", "--seconds",
                             "1", "--trace", str(trace), "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in out["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)
                for m in want:  # and in the printed table, with its unit
                    self.assertRegex(proc.stdout, rf"\n  {m} +\S+ {want[m]} ")
                if not trace:
                    self.assertRegex(proc.stdout, r"\n  failed_frac +0 ratio")

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_metrics(0, "end_to_end")

    def test_traced_run_prints_every_layer_metric(self):
        self.check_metrics(1, "per_layer")

    def test_corrupted_solution_trips_the_check(self):
        pb, _ = worker.load_program()
        wl = TINY["enum_micro"]
        tasks, lib, scorer = worker.setup(pb, wl)
        cfg = pb.synthesis.SearchConfig(**wl.search)
        good = pb.synthesis.search(tasks[0], lib, scorer, cfg)
        self.assertTrue(good.solved)

        rec = worker.Recorder(pb)
        rec.add(tasks[0].name, tasks[0], lib, good, 0.1)
        self.assertTrue(rec.check(1), rec.problems)

        wrong = pb.lang.parse_term("(Reverse xs)", lib.op_names(), {"xs"})
        bad = dataclasses.replace(good, program=wrong)
        rec = worker.Recorder(pb)
        rec.add(tasks[0].name, tasks[0], lib, bad, 0.1)
        self.assertFalse(rec.check(1))
        self.assertEqual(rec.failed, 1)
        self.assertIn("fails the task's examples", rec.problems[0])

    def test_fails_without_the_program(self):
        os.makedirs(worker.OUT, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=worker.OUT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = bench("--workload", "enum_micro", "--seed", "1",
                         "--seconds", "1", "--tiny", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
