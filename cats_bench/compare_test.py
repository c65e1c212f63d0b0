#!/usr/bin/env python3
"""Fixture test of compare.py: each metric in testdata/ is built so that
comparing base.json with changed.json gives one known verdict."""
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402

BASE = HERE / "testdata" / "base.json"
CHANGED = HERE / "testdata" / "changed.json"

EXPECTED = {
    ("update_heavy", "throughput_mops"): "better",
    ("update_heavy", "update_p50_ns"): "worse",
    ("update_heavy", "update_p99_ns"): "unresolved",
    ("update_heavy", "setup_s"): "within bound",
    ("update_heavy", "failed_ops_share"): "worse",
    ("range_mix", "throughput_mops"): "within bound",
    ("range_mix", "update_p50_ns"): "missing",
    ("range_mix", "range_p50_ns"): "better",
    ("range_mix", "failed_ops_share"): "within bound",
}


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        rows = compare.compare(compare.load(BASE), compare.load(CHANGED))
        self.assertEqual({(r.workload, r.metric): r.verdict for r in rows},
                         EXPECTED)

    def test_identical_runs_within_bound(self):
        self.assertEqual(compare.verdict([1, 2, 3], [1, 2, 3], "lower", 1.0),
                         "within bound")

    def test_zero_base_median(self):
        self.assertEqual(compare.verdict([0, 0, 0], [1, 1, 1], "lower", 0.1),
                         "worse")

    def test_exit_status_and_table(self):
        done = subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(BASE), str(CHANGED)],
            capture_output=True, text=True)
        self.assertEqual(done.returncode, 1)
        self.assertIn("9 comparisons, 4 worse, unresolved or missing",
                      done.stdout)


if __name__ == "__main__":
    unittest.main()
