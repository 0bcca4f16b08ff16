#!/usr/bin/env python3
"""Tests of perfbench/compare.py on synthetic result sets.

    python3 perfbench/test_compare.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

LAT = {"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
RPS = {"name": "req_per_s", "unit": "1/s", "better": "higher",
       "bound": 0.1}


def result(workload, lat, rps=100.0, failed=0, trace=0):
    return {"workload": workload, "trace": trace, "attempted": 1000,
            "failed": failed,
            "metrics": {"lat_p50_ms": {"value": lat, "unit": "ms"},
                        "req_per_s": {"value": rps, "unit": "1/s"}}}


def verdicts(parent, change, claims=()):
    rows = compare.compare({"w": parent}, {"w": change}, [LAT, RPS],
                           set(claims))
    return {r[1]: r[8] for r in rows}


class JudgeTest(unittest.TestCase):
    def test_claim_needs_nine_of_ten_wins_and_gap_beyond_iqr(self):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
        change = [v - 1.0 for v in parent]
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, True)[0], "improved")

    def test_claim_with_two_losses_is_not_met(self):
        parent = [10.0] * 10
        change = [9.0] * 8 + [10.5, 10.5]
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, True)[0], "not-met")

    def test_ties_count_for_neither_side(self):
        parent = [10.0] * 10
        change = [9.0] * 9 + [10.0]  # 9 wins, 1 tie: 9/10 suffices
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, True)[0], "improved")
        change = [9.0] * 8 + [10.0, 10.0]  # 8 wins, 2 ties
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, True)[0], "not-met")

    def test_claim_gap_inside_parent_iqr_is_not_met(self):
        parent = [8.0, 12.0] * 5  # IQR 4
        change = [v - 0.5 for v in parent]  # wins every pair by 0.5
        verdict, detail = compare.judge(parent, change, 0.1, False, True)
        self.assertEqual(verdict, "not-met", detail)

    def test_regression_beyond_bound(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05]
        change = [11.5, 11.6, 11.4, 11.5, 11.55]
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, False)[0],
            "regressed")
        # Within the bound: ok.
        change = [10.5, 10.6, 10.4, 10.5, 10.55]
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, False)[0], "ok")

    def test_higher_is_better_direction(self):
        parent = [100.0, 101.0, 99.0, 100.0, 100.5]
        change = [80.0, 81.0, 79.0, 80.0, 80.5]
        self.assertEqual(
            compare.judge(parent, change, 0.1, True, False)[0], "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [8.0, 12.0, 8.0, 12.0, 10.0, 8.0, 12.0]
        change = [10.5] * 7
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, False)[0],
            "unresolved")

    def test_unresolved_unless_every_change_run_better(self):
        parent = [8.0, 12.0, 8.0, 12.0, 10.0]
        change = [7.0, 7.5, 6.9, 7.2, 7.1]
        self.assertEqual(
            compare.judge(parent, change, 0.1, False, False)[0], "ok")


class CompareTest(unittest.TestCase):
    def test_failure_share_rise_is_flagged(self):
        parent = [result("w", 10.0) for _ in range(5)]
        change = [result("w", 10.0, failed=1)] + parent[1:]
        self.assertEqual(verdicts(parent, change)["fail_share"],
                         "regressed")
        self.assertEqual(verdicts(parent, parent)["fail_share"], "ok")

    def test_missing_workload(self):
        rows = compare.compare({"w": [result("w", 1.0)]}, {}, [LAT], set())
        self.assertEqual(rows[0][8], "missing")

    def test_load_runs_orders_by_start_and_skips_traced_runs(self):
        with tempfile.TemporaryDirectory() as d:
            # Written out of order: the start time in the name decides.
            for t, r in ((30, result("w", 3.0)), (10, result("w", 1.0)),
                         (20, result("w", 2.0, trace=1))):
                with open(os.path.join(d, "w-seed1-trace%d-%d.json"
                                       % (r["trace"], t)), "w") as f:
                    json.dump(r, f)
            with open(os.path.join(d, "w-seed1-trace1-20-spans.json"),
                      "w") as f:
                json.dump([], f)
            runs = compare.load_runs(d)
        self.assertEqual(
            [r["metrics"]["lat_p50_ms"]["value"] for r in runs["w"]],
            [1.0, 3.0])

    def test_main_exit_status(self):
        with tempfile.TemporaryDirectory() as d:
            bench = os.path.join(d, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump({"end_to_end": [LAT, RPS]}, f)
            for side, lat in (("parent", 10.0), ("change", 12.0)):
                os.mkdir(os.path.join(d, side))
                for i in range(5):
                    path = os.path.join(d, side, "w-seed%d-trace0-%d.json"
                                        % (i, i))
                    with open(path, "w") as f:
                        json.dump(result("w", lat + 0.01 * i), f)
            argv = [os.path.join(d, "parent"), os.path.join(d, "change"),
                    "--benchmark", bench]
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    self.assertEqual(compare.main(argv), 1)
                    self.assertEqual(compare.main(argv[:1] * 2 + argv[2:]),
                                     0)
                finally:
                    sys.stdout = stdout


if __name__ == "__main__":
    unittest.main()
