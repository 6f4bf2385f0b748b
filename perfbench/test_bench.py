#!/usr/bin/env python3
"""The benchmark's own test, at a tiny scale (about two minutes):

    python3 perfbench/test_bench.py

Runs every workload of run.py with --tiny inputs, untraced and
traced, and checks that each named metric is printed with its unit, that
the traced staged replay equals TSExplain::Run, and that the oracle
rejects a deliberately wrong reference.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=5, seconds=2):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=str(HERE.parent), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None, proc.stderr


class WorkloadRuns(unittest.TestCase):
    def check(self, workload, trace, wanted):
        rc, lines, result, err = bench(workload, trace)
        self.assertEqual(rc, 0, err[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        text = "\n".join(lines)
        self.assertIn("seed=5", text)
        self.assertIn("nproc=", text)
        self.assertIn("simd=", text)
        return text

    def test_every_workload_prints_every_metric(self):
        # hot_explore is runnable but not in BENCHMARK.json (see layers.json).
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check(workload, 0, SPEC["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                text = self.check(workload, 1, SPEC["per_layer"])
                # The staged replay matched TSExplain::Run on every case.
                self.assertRegex(text, r"staged replay: .*\b[1-9]\d* staged results equal "
                                       r"TSExplain::Run bit for bit")
                self.assertIn("tracing overhead:", text)
                self.assertIn("largest engine-layer self time:", text)

    def test_per_layer_units_match_the_benchmark_file(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.LAYER_UNITS)


class OracleRejectsWrongReference(unittest.TestCase):
    """A real server answer, checked against a right and two wrong references."""

    @classmethod
    def setUpClass(cls):
        cls.serve, cls.probe = run.build()
        cls.work = run.WORK / "oracle-test"
        cls.work.mkdir(parents=True, exist_ok=True)
        rc, _, err = run.run_probe(cls.probe, ["gen", "--seed", "3", "--dir", str(cls.work), "--tiny"])
        assert rc == 0, err
        server = run.Server(cls.serve, [], cls.work)
        server.start()
        try:
            conn = run.Conn(server.port)
            run.must(conn.call({"op": "register", "name": "liquor",
                                "csv_path": str(cls.work / "liquor.tsx")}), "register")
            cls.request = run.explain_req("liquor", "bottles_sold", ("BV", "P"), agg="sum",
                                          diff_metric="abs")
            cls.served = run.must(conn.call(cls.request), "explain")["result"]
            conn.close()
        finally:
            server.stop()

    @classmethod
    def tearDownClass(cls):
        for p in cls.work.iterdir():
            p.unlink()
        cls.work.rmdir()

    def reference(self, request):
        case = {"kind": "explain", "table": "liquor.tsx", "request": request}
        n, mismatches = run.run_oracle(self.probe, self.work, [(case, self.served, "k")], "test")
        self.assertEqual(n, 1)
        return mismatches

    def test_right_reference_matches(self):
        self.assertEqual(self.reference(self.request), [])

    def test_reference_with_another_config_is_rejected(self):
        wrong = dict(self.request, diff_metric="rel")
        self.assertEqual(len(self.reference(wrong)), 1)

    def test_perturbed_reference_is_rejected(self):
        self.assertIsNone(run.compare_results(self.served, copy.deepcopy(self.served)))
        bad = copy.deepcopy(self.served)
        bad["segments"][0]["explanations"][0]["gamma"] += 1.0
        self.assertIsNotNone(run.compare_results(self.served, bad))
        bad = copy.deepcopy(self.served)
        bad["cuts"][1] += 1
        self.assertIsNotNone(run.compare_results(self.served, bad))
        bad = copy.deepcopy(self.served)
        bad["k"] += 1
        self.assertIsNotNone(run.compare_results(self.served, bad))


if __name__ == "__main__":
    unittest.main(verbosity=2)
