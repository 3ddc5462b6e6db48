#!/usr/bin/env python3
"""Self-test of the host-cost benchmark's fidelity guarantees.

Run from the checkout root (builds hostbench/ like run.py does):
  python3 hostbench/test_hostbench.py

For every workload it asserts that
  1. two untraced rounds at one seed print the same sim_digest;
  2. a traced round prints the untraced rounds' sim_digest, so the
     decorators are transparent to the simulation, and its span file
     re-derives the per-seam self times and residual it reported;
and that
  3. at seed 2024 and bench/serving.cc's 240 sim-s horizon, the untraced
     serving round writes the report that bench/serving.cc writes
     (BENCH_serving.json), byte for byte.
"""

import filecmp
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 2024
ROUND_TIMEOUT_S = 170


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.directory = run.build_dir()
        cls.binary = run.build(cls.directory)
        cls.out_dir = os.path.join(cls.directory, "test-out")
        os.makedirs(cls.out_dir, exist_ok=True)

    def round(self, workload, traced, extra_args=()):
        record, _ = run.run_round(self.binary, workload, SEED, traced,
                                  self.out_dir, ROUND_TIMEOUT_S, extra_args)
        self.assertEqual(record["mismatches"], 0)
        self.assertEqual(record["failed"], 0)
        return record

    def check_workload(self, workload, extra_args=()):
        first = self.round(workload, False, extra_args)
        second = self.round(workload, False, extra_args)
        traced = self.round(workload, True, extra_args)
        self.assertEqual(first["sim_digest"], second["sim_digest"])
        self.assertEqual(first["sim_digest"], traced["sim_digest"])
        self.assertEqual(traced["open_spans"], 0)
        self.assertTrue(traced["spans_written"])
        self.assertEqual(run.audit_spans(traced), [])
        return first

    def test_scan_agg(self):
        self.check_workload("scan_agg")

    def test_shuffle_join(self):
        self.check_workload("shuffle_join")

    def test_serving_matches_bench_serving(self):
        # bench/serving.cc drives arrivals for 240 sim-s; the workload's
        # own horizon is shorter.
        record = self.check_workload("serving", ["--horizon-s", "240"])
        self.assertTrue(record["report_written"])
        subprocess.run(["cmake", "--build", self.directory, "--target",
                        "serving_reference", "-j", "4"], check=True,
                       stdout=subprocess.DEVNULL)
        reference_dir = os.path.join(self.directory, "serving-reference")
        os.makedirs(reference_dir, exist_ok=True)
        subprocess.run([os.path.join(self.directory, "serving_reference")],
                       cwd=reference_dir, check=True,
                       stdout=subprocess.DEVNULL, timeout=ROUND_TIMEOUT_S)
        self.assertTrue(filecmp.cmp(
            record["report_file"],
            os.path.join(reference_dir, "BENCH_serving.json"), shallow=False))


if __name__ == "__main__":
    unittest.main()
