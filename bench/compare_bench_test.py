#!/usr/bin/env python3
"""Tests for compare_bench.py: medians of repeated rows and CV tolerance.

Run: python3 bench/compare_bench_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import compare_bench  # noqa: E402

ROW = "BM_Stab/1024/real_time"


def iteration(time, name=ROW):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": time}


def aggregate(kind, value, name=ROW):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": kind,
            "real_time": value}


def repeated(times, median, cv=None):
    rows = [iteration(t) for t in times] + [aggregate("median", median)]
    if cv is not None:
        rows.append(aggregate("cv", cv))
    return rows


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.fresh = os.path.join(self.tmp.name, "fresh")
        os.mkdir(self.base)
        os.mkdir(self.fresh)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, where, benchmarks):
        path = os.path.join(where, "BENCH_x.json")
        with open(path, "w") as f:
            json.dump({"benchmarks": benchmarks}, f)
        return path

    def compare(self):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "compare_bench.py"),
             self.base, self.fresh],
            capture_output=True, text=True).returncode

    def test_repeated_rows_compare_their_median(self):
        # The last repetition (300) is an outlier; the median is 100.
        path = self.write(self.base, repeated([100, 101, 99, 100, 300], 100))
        self.assertEqual(compare_bench.load_rows(path)[ROW],
                         {"time": 100.0, "cv": None})
        # 200 is twice the median: flagged, though it beats the last rep.
        self.write(self.fresh, repeated([200, 200, 200], 200))
        self.assertEqual(self.compare(), 1)
        self.write(self.fresh, repeated([110, 110, 110], 110))
        self.assertEqual(self.compare(), 0)

    def test_single_runs_keep_the_plain_threshold(self):
        path = self.write(self.base, [iteration(100)])
        self.assertEqual(compare_bench.load_rows(path)[ROW],
                         {"time": 100.0, "cv": None})
        self.write(self.fresh, [iteration(124)])
        self.assertEqual(self.compare(), 0)
        self.write(self.fresh, [iteration(126)])
        self.assertEqual(self.compare(), 1)

    def test_cv_widens_the_tolerance(self):
        # A baseline CV of 0.2 at CV_K = 2 allows +40%; the plain threshold
        # allows +25%.
        self.write(self.base, repeated([80, 100, 120], 100, cv=0.2))
        self.write(self.fresh, repeated([135, 135, 135], 135, cv=0.01))
        self.assertEqual(self.compare(), 0)
        self.write(self.fresh, repeated([145, 145, 145], 145, cv=0.01))
        self.assertEqual(self.compare(), 1)

    def test_noisy_fresh_run_does_not_raise_its_own_limit(self):
        # A slower fresh run with a high CV is still held to the baseline's
        # tolerance (+25% here), not to CV_K times its own CV.
        self.write(self.base, repeated([100, 100, 100], 100, cv=0.01))
        self.write(self.fresh, repeated([80, 150, 220], 150, cv=0.4))
        self.assertEqual(self.compare(), 1)
        self.assertEqual(
            compare_bench.tolerance(0.25, {"time": 100.0, "cv": 0.01}), 0.25)

    def test_small_cv_never_tightens_the_threshold(self):
        self.write(self.base, repeated([100, 100, 100], 100, cv=0.01))
        self.write(self.fresh, repeated([120, 120, 120], 120, cv=0.01))
        self.assertEqual(self.compare(), 0)


if __name__ == "__main__":
    unittest.main()
