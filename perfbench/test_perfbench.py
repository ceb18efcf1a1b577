#!/usr/bin/env python3
"""Tests of the protocol benchmark itself, at the smoke size.

    python3 perfbench/test_perfbench.py

Run from the root of the repository. Builds perfbench/ like run.py does,
runs the unit checks of the scoring and tracing code, runs every workload
at the smoke size with every correctness gate, and checks the output schema
against BENCHMARK.json. Takes well under a minute once built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Span names the traced run must record: one or more per layer.
LAYER_SPANS = {
    "datagen.generate", "storage.init_store", "storage.graph_build",
    "params.curate", "driver.refresh", "driver.refresh.log",
    "driver.refresh.copy", "driver.refresh.apply", "storage.export",
    "bi.verification_pass", "validate.naive_xcheck",
    "validate.graph", "storage.recover",
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_cli(workload, trace, seed=run.DEFAULT_SEED, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=run.BUILD_TIMEOUT_S + run.RUN_TIMEOUT_S)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.bench = load_benchmark()

    def test_unit_checks(self):
        proc = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_test")])
        self.assertEqual(proc.returncode, 0)

    def test_workload_names_match(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def check_result(self, proc, spec, positive):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if positive:
                self.assertGreater(m["value"], 0, name)

    def test_smoke_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(run_cli(workload, 0),
                                  self.bench["end_to_end"], positive=True)

    def test_smoke_per_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(run_cli(workload, 1),
                                  self.bench["per_layer"], positive=False)

    def test_other_seed_passes_gates(self):
        self.check_result(run_cli("delete-power", 0, seed=2),
                          self.bench["end_to_end"], positive=True)

    def test_traced_run_spans_and_breakdown(self):
        work = os.path.join(run.BUILD_ROOT, "work", "test-traced")
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                trace_out = os.path.join(run.BUILD_ROOT, "test-trace.json")
                proc = subprocess.run(
                    [os.path.join(run.BUILD_DIR, "protocol"),
                     "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--size", "smoke", "--work-dir", work,
                     "--trace-out", trace_out],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, timeout=run.RUN_TIMEOUT_S)
                shutil.rmtree(work, ignore_errors=True)
                self.assertEqual(proc.returncode, 0)
                report = json.loads(proc.stdout.strip().splitlines()[-1])
                # The refresh parts plus self time make up each batch's
                # write time.
                self.assertEqual(len(report["refresh_breakdown"]),
                                 report["descriptor"]["batches"])
                for row in report["refresh_breakdown"]:
                    parts = (row["log_ms"] + row["copy_ms"] + row["apply_ms"]
                             + row["compact_ms"] + row["self_ms"])
                    self.assertAlmostEqual(parts, row["write_ms"], places=6)
                with open(trace_out) as f:
                    events = json.load(f)["traceEvents"]
                os.remove(trace_out)
                names = {e["name"] for e in events}
                self.assertTrue(LAYER_SPANS <= names, LAYER_SPANS - names)
                for e in events:
                    self.assertEqual(e["args"]["run"], 3)
                    self.assertLess(e["args"]["parent"], e["args"]["id"])
                self.assertIn("sched.stream_round"
                              if workload == "mixed-refresh"
                              else "sched.power_run", names)
                if workload == "delete-power":
                    self.assertIn("driver.refresh.compact", names)
                self.assertEqual(set(report["span_summary"]), names)

    def test_fails_without_program_sources(self):
        # A directory with only BENCHMARK.json and perfbench/ cannot build
        # the program: the run must fail without printing a result.
        iso = os.path.join(run.BUILD_ROOT, "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_cli("insert-power", 0, cwd=iso)
        finally:
            shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
