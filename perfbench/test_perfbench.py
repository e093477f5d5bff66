#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

    python3 perfbench/test_perfbench.py

They drive perfbench/run.py on fig6 (the cheapest workload) with the
default seed, so every run is checked against a reference digest.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def bench(*extra, cwd=ROOT, script=RUN):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, script, "--workload", "fig6", "--seed", "42",
                           "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


class PerfbenchTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        code, lines = bench("--trace", "0")
        self.assertEqual(code, 0)
        provenance = json.loads(lines[-3])["provenance"]
        self.assertTrue(provenance["reference_checked"])
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 4)
        self.assertEqual(json.loads(lines[-2])["failed_frac"], 0.0)
        for name in ("cpu_s", "cpu_s.cfs", "cpu_s.ule", "cpu_s.mlfq", "cpu_s.eevdf",
                     "setup_s", "peak_rss_mb"):
            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_injected_modelled_change_is_a_failed_run(self):
        code, lines = bench("--trace", "0", "--inject", "cfs_sched_latency")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        # Only the CFS samples change; CFS is sampled first in each round.
        per_unit = json.loads(lines[-3])["provenance"]["samples_per_unit"]
        self.assertGreaterEqual(result["failed"], per_unit)
        self.assertLessEqual(result["failed"], per_unit + 1)
        self.assertEqual(json.loads(lines[-2])["failed_frac"],
                         result["failed"] / result["attempted"])

    def test_traced_counts_repeat_and_match_untraced_runs(self):
        results = []
        for _ in range(2):
            code, lines = bench("--trace", "1")
            self.assertEqual(code, 0)
            result = json.loads(lines[-1])
            # Traced digests and event counts equal the untraced runs'.
            self.assertTrue(result["correct"])
            results.append(result["metrics"])
        counts = [{k: v["value"] for k, v in m.items()
                   if k.endswith(".calls_per_event") or k.startswith(("sim.", "machine."))
                   and not k.endswith("residual_ns_per_event")}
                  for m in results]
        self.assertEqual(len(counts[0]), 4 * (8 + 3 + 1 + 7))
        self.assertEqual(counts[0], counts[1])
        for cls in ("cfs", "ule", "mlfq", "eevdf"):
            self.assertIn(f"trace.{cls}.overhead_frac", results[0])
            self.assertEqual(results[0][f"machine.{cls}.wakeups"]["value"], 0)  # no wakeups

    def test_fails_without_the_program_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"))
            code, lines = bench("--trace", "0", cwd=tmp,
                                script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
