#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

Run from the root of a checkout:
    python3 perfbench/test_bench.py

Builds the binary through run.py, then checks that
  * forkexec and anon_stream (one client thread, no pageout) repeat every
    per-operation counter exactly across two runs with the same seed and a
    fixed operation count;
  * --trace 0 prints exactly the end-to-end metrics BENCHMARK.json names,
    with their units, and --trace 1 exactly the per-layer ones, on every
    workload, each run passing its output and anti-vacuity checks.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, seed, seconds, trace, *extra):
    """Runs one workload; returns (report, summary) parsed from stdout."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


class DeterminismTest(unittest.TestCase):
    def test_single_thread_counters_repeat_exactly(self):
        for workload, ops in (("forkexec", 2000), ("anon_stream", 40)):
            with self.subTest(workload=workload):
                first, _ = run(workload, 11, 60, 0, "--ops", str(ops))
                second, _ = run(workload, 11, 60, 0, "--ops", str(ops))
                self.assertEqual(first["ops"], ops)
                self.assertEqual(first["counters_per_op"], second["counters_per_op"])


class MetricNamesTest(unittest.TestCase):
    def check(self, trace, declared):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                report, summary = run(workload, 5, 2, trace)
                self.assertTrue(summary["correct"], report["error"])
                self.assertEqual(summary["failed"], 0)
                self.assertGreaterEqual(summary["attempted"], 1)
                got = {name: m["unit"] for name, m in summary["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
                self.assertEqual(report["op_fail_ratio"]["value"], 0)

    def test_end_to_end_metrics(self):
        self.check(0, BENCHMARK["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, BENCHMARK["per_layer"])


if __name__ == "__main__":
    unittest.main()
