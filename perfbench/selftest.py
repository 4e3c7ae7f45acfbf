"""The benchmark's own tests: tiny-size smoke runs of every workload.

Run from the repository root (about a minute on two cores):

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection; the
benchmark is not part of the program's tier-1 suite.
"""

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

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def bench(*args, cwd=ROOT):
    """(exit code, info line, result line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def tiny(workload, seed=7, trace=0):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")


class SmokeTest(unittest.TestCase):
    def check_result(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, info, result = tiny(workload)
                self.assertEqual(code, 0)
                self.check_result(result, CONTRACT["end_to_end"])
                self.assertEqual(info["check_fail_rate"]["value"], 0.0)
                code, _, traced = tiny(workload, trace=1)
                self.assertEqual(code, 0)
                self.check_result(traced, CONTRACT["per_layer"])
                layers = {k: v["value"] for k, v in traced["metrics"].items()}
                attributed = sum(layers[f"{layer}.self_s"] for layer in
                                 ("batched", "matrix_lab", "padic_core", "root_census",
                                  "closed_forms", "experiment", "registry"))
                self.assertAlmostEqual(
                    attributed - layers["trace.overlap_s"]
                    + layers["trace.unattributed_s"], layers["trace.wall_s"], places=6)

    def test_digest_repeats_and_is_worker_invariant(self):
        digests = {tiny(w, seed=11)[1]["report_digest"]
                   for w in ("census", "census_2w", "census")}
        self.assertEqual(len(digests), 1)
        self.assertNotEqual(tiny("census", seed=12)[1]["report_digest"], digests.pop())

    def test_unknown_workload_is_a_usage_error(self):
        code, _, result = bench("--workload", "nope", "--seed", "1")
        self.assertEqual(code, 2)
        self.assertIsNone(result)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, _, result = bench("--workload", "census", "--seed", "1", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
