#!/usr/bin/env python3
"""Unit tests for bench_diff.py, run as a subprocess the way CI does.

Pins the diff semantics the CI gate depends on:
  - zero baselines never fail through an infinite ratio
    (base == 0, cur == 0 passes; base == 0, cur > 0 fails a --gate
    counter and is "new metric" info otherwise)
  - a counter present in the baseline but missing from the current run is
    a clear "counter missing from current run" failure, not a traceback
  - ordinary regressions beyond the threshold still fail
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def write_bench(dirname, filename, results):
    path = os.path.join(dirname, filename)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"bench": "t", "results": results}, f)
    return path


def result(name, wall_ms=1.0, counters=None):
    return {"name": name, "wall_ms": wall_ms, "counters": counters or {},
            "config": {}}


def run_diff(base, cur, *extra):
    proc = subprocess.run(
        [sys.executable, SCRIPT, base, cur, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def diff(self, base_results, cur_results, *extra):
        base = write_bench(self.dir.name, "base.json", base_results)
        cur = write_bench(self.dir.name, "cur.json", cur_results)
        return run_diff(base, cur, *extra)

    def test_identical_runs_pass(self):
        results = [result("leg", 10.0, {"pairs": 5})]
        code, out = self.diff(results, results, "--gate", "pairs")
        self.assertEqual(code, 0, out)

    def test_zero_baseline_zero_current_passes(self):
        code, out = self.diff(
            [result("warm", 1.0, {"detect_ops": 0})],
            [result("warm", 1.0, {"detect_ops": 0})],
            "--gate", "detect_ops")
        self.assertEqual(code, 0, out)
        self.assertNotIn("infx", out)

    def test_zero_baseline_nonzero_current_is_new_metric_info(self):
        code, out = self.diff(
            [result("warm", 1.0, {"detect_ops": 0})],
            [result("warm", 1.0, {"detect_ops": 40})])
        self.assertEqual(code, 0, out)
        self.assertIn("new metric", out)
        self.assertNotIn("infx", out)
        self.assertNotIn("REGRESSIONS", out)

    def test_zero_baseline_gated_counter_turning_nonzero_fails(self):
        code, out = self.diff(
            [result("q2", 1.0, {"root_sorts_sorted": 0})],
            [result("q2", 1.0, {"root_sorts_sorted": 60})],
            "--gate", "root_sorts_sorted", "--threshold", "0")
        self.assertEqual(code, 1, out)
        self.assertIn("q2/root_sorts_sorted", out)
        self.assertIn("zero baseline", out)
        self.assertNotIn("infx", out)
        self.assertNotIn("Traceback", out)

    def test_zero_baseline_gated_counter_fails_at_any_threshold(self):
        code, out = self.diff(
            [result("q2", 1.0, {"cells": 0})],
            [result("q2", 1.0, {"cells": 1})],
            "--gate", "cells", "--threshold", "3.0")
        self.assertEqual(code, 1, out)
        self.assertIn("q2/cells", out)

    def test_zero_baseline_gated_counter_staying_zero_passes(self):
        code, out = self.diff(
            [result("q2", 1.0, {"cells": 0, "kept": 60})],
            [result("q2", 1.0, {"cells": 0, "kept": 60})],
            "--metrics", "cells,kept", "--gate", "cells,kept",
            "--threshold", "0")
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSIONS", out)

    def test_gated_counter_dropping_to_zero_passes(self):
        code, out = self.diff(
            [result("q2", 1.0, {"kept": 60})],
            [result("q2", 1.0, {"kept": 0})],
            "--gate", "kept", "--threshold", "0")
        self.assertEqual(code, 0, out)

    def test_zero_baseline_time_metric_does_not_gate(self):
        code, out = self.diff(
            [result("leg", 0.0)],
            [result("leg", 123.0)])
        self.assertEqual(code, 0, out)
        self.assertNotIn("infx", out)

    def test_missing_counter_is_clear_failure_not_traceback(self):
        code, out = self.diff(
            [result("leg", 1.0, {"fsync_ms": 2.0})],
            [result("leg", 1.0, {})])
        self.assertEqual(code, 1, out)
        self.assertIn("counter missing from current run", out)
        self.assertNotIn("Traceback", out)
        self.assertNotIn("KeyError", out)

    def test_missing_counters_dict_is_clear_failure(self):
        cur = [{"name": "leg", "wall_ms": 1.0}]  # no "counters" key at all
        code, out = self.diff(
            [result("leg", 1.0, {"fsync_ms": 2.0})], cur)
        self.assertEqual(code, 1, out)
        self.assertIn("counter missing from current run", out)
        self.assertNotIn("Traceback", out)

    def test_missing_result_still_fails(self):
        code, out = self.diff(
            [result("leg")], [result("other")])
        self.assertEqual(code, 1, out)
        self.assertIn("missing from current run", out)

    def test_time_regression_beyond_threshold_fails(self):
        code, out = self.diff(
            [result("leg", 10.0)], [result("leg", 20.0)],
            "--threshold", "0.25")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSIONS", out)

    def test_gated_counter_regression_fails(self):
        code, out = self.diff(
            [result("leg", 1.0, {"pairs": 100})],
            [result("leg", 1.0, {"pairs": 200})],
            "--gate", "pairs", "--threshold", "0.05")
        self.assertEqual(code, 1, out)
        self.assertIn("leg/pairs", out)

    def test_ungated_counter_growth_is_info_only(self):
        code, out = self.diff(
            [result("leg", 1.0, {"speedup": 1.0})],
            [result("leg", 1.0, {"speedup": 9.0})])
        self.assertEqual(code, 0, out)

    def test_new_result_in_current_passes(self):
        code, out = self.diff(
            [result("leg")], [result("leg"), result("extra")])
        self.assertEqual(code, 0, out)
        self.assertIn("new result", out)

    def test_result_without_name_is_shape_error(self):
        base = write_bench(self.dir.name, "base.json", [result("leg")])
        cur = os.path.join(self.dir.name, "cur.json")
        with open(cur, "w", encoding="utf-8") as f:
            json.dump({"bench": "t", "results": [{"wall_ms": 1.0}]}, f)
        code, out = run_diff(base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertNotIn("Traceback", out)


if __name__ == "__main__":
    unittest.main()
