#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_benchmark.py

Run from the root of a checkout; the first test builds the benchmark through
perfbench/run.py. Checks that:
  * the sim::Scheduler / sim::Workload wrappers and the serving lease observer
    are transparent (wrapped runs reproduce unwrapped ones bit for bit);
  * the binary's metric catalog is exactly the one BENCHMARK.json names;
  * every workload emits every metric named in BENCHMARK.json, with its unit,
    in both modes, and the end-to-end ones are never 0;
  * the benchmark refuses to run where the program's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds on first use; also runs the wrapper transparency checks.
        cls.selftest = subprocess.run(RUN + ["--selftest"], cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=1800)

    def test_wrappers_are_transparent(self):
        self.assertEqual(self.selftest.returncode, 0,
                         self.selftest.stdout + self.selftest.stderr)
        self.assertIn("sim wrappers: 8 cells, transparent",
                      self.selftest.stdout)
        self.assertIn("serve observer: 6 cells, transparent",
                      self.selftest.stdout)

    def test_catalog_matches_benchmark_json(self):
        binary = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        binary = (binary if binary.is_absolute() else ROOT / binary) / "wats_bench"
        out = subprocess.run([str(binary), "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        catalog = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            catalog[kind].append((name, unit))
        s = spec()
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(catalog[kind],
                             [(m["name"], m["unit"]) for m in s[kind]], kind)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        s = spec()
        for workload in [w["name"] for w in s["workloads"]]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_workload(workload, trace)
                    self.assertEqual(code, 0, result)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics),
                                     {m["name"] for m in s[kind]})
                    for m in s[kind]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        if trace == 0:
                            self.assertGreater(metrics[m["name"]]["value"], 0,
                                               m["name"])

    def test_refuses_to_run_without_the_program_sources(self):
        isolated = ROOT / ".bench_build" / "isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        isolated.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        shutil.copytree(BENCH_DIR, isolated / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=isolated, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
