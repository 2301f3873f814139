#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs the traced run of every workload twice on a small corpus and
asserts that
  * one seed yields an identical op stream (the printed digest), and a
    different seed a different one;
  * both traced runs report identical per-layer counts: every metric
    whose value is a count, share or estimate rather than a time;
  * every run is correct and prints every per-layer metric that
    BENCHMARK.json lists.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = "300"
# Wall-clock derived, so expected to differ between runs.
TIMED_UNITS = {"ms", "s"}
TIMED_RATIOS = {"optimizer.unopt_over_opt", "optimizer.unopt_over_opt_small"}


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1", "--docs", DOCS],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run failed (%d):\n%s" % (proc.returncode,
                                                       proc.stderr[-4000:]))
    digest = re.search(r"op_stream_digest ([0-9a-f]{16})", proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return digest.group(1), result


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIMED_UNITS and name not in TIMED_RATIOS}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_traced_runs_repeat_exactly(self):
        expected = {m["name"] for m in self.spec["per_layer"]}
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload):
                digest_a, first = traced_run(workload, 7)
                digest_b, second = traced_run(workload, 7)
                self.assertEqual(digest_a, digest_b)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(set(first["metrics"]), expected)
                self.assertEqual(counts(first), counts(second))
                self.assertEqual(first["failed"], second["failed"])

    def test_seed_changes_the_op_stream(self):
        digest_a, _ = traced_run("scan", 7)
        digest_b, _ = traced_run("scan", 8)
        self.assertNotEqual(digest_a, digest_b)


if __name__ == "__main__":
    unittest.main()
