#!/usr/bin/env python3
"""Self-test of the repository benchmark, at the tiny scale (about a minute).

    python3 perfbench/test_perfbench.py

Checks that every workload prints every metric BENCHMARK.json names, with its
unit, in both modes; that a run at a non-default seed is checked for cross-rep
identity only; and that a perturbed golden makes the correctness gate fail.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-test")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, seed=1, golden=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--scale", "tiny"]
    if golden is not None:
        cmd += ["--golden", golden]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class PerfbenchTest(unittest.TestCase):
    def assert_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for m in listed:
            self.assertIn(m["name"], result["metrics"])
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertEqual(len(result["metrics"]), len(listed))

    def test_every_metric_printed_with_unit(self):
        for w in SPEC["workloads"]:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, err = run(w["name"], trace=trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assert_metrics(result, listed)
                    if trace == 0:
                        for m in listed:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m)
                    else:
                        self.assertGreater(
                            result["metrics"]["trace.overhead_ratio"]["value"], 0)

    def test_non_default_seed_checks_identity_only(self):
        code, result, err = run("kv_serve_shared", seed=7)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], err)

    def test_perturbed_golden_fails_the_gate(self):
        with open(os.path.join(HERE, "golden.json")) as f:
            golden = json.load(f)
        os.makedirs(SCRATCH, exist_ok=True)
        for field, value in (("digest", "0000000000000000"), ("not_found", 1)):
            with self.subTest(field=field):
                perturbed = json.loads(json.dumps(golden))
                perturbed["tiny"]["media_read"][field] = value
                path = os.path.join(SCRATCH, f"golden-{field}.json")
                with open(path, "w") as f:
                    json.dump(perturbed, f)
                code, result, err = run("media_read", golden=path)
                self.assertEqual(code, 1, err)
                self.assertFalse(result["correct"])
                self.assertIn("INCORRECT", err)


if __name__ == "__main__":
    unittest.main()
