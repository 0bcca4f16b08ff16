#!/usr/bin/env python3
"""Compare perfbench result sets from a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR \\
        [--claim METRIC@WORKLOAD ...] [--benchmark BENCHMARK.json]

Each directory holds result files written by perfbench/run.py (the
``*.json`` files under ``.bench_build/results``; span files are
skipped). Only untraced results are compared. Runs of one workload are
paired in the order they were started (the time in each file name), so
alternate parent and change runs when collecting them.

For every workload and end-to-end metric the tool prints both sides'
median and quartiles and one verdict:

  improved     a claimed metric won at least 9 of 10 pairs (ties count
               for neither side) and the medians differ by more than
               the parent's interquartile range
  not-met      a claimed metric that fell short of that rule
  ok           every change run beats every parent run, or the
               change's median is within the metric's bound
  unresolved   the parent's own spread (IQR over median) is wider than
               the bound, so the difference cannot be told from noise
  regressed    the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json

It also compares the share of failed requests on each workload
(``fail_share``, regressed if the change's is higher). The exit status
is 0 only when every row is ok or improved.
"""

import argparse
import glob
import json
import os
import statistics
import sys

WINS_NEEDED = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(directory):
    """{workload: [result, ...]} for untraced results, in run order."""
    runs = {}
    paths = [p for p in glob.glob(os.path.join(directory, "*.json"))
             if not p.endswith("-spans.json")]
    # run.py names results <workload>-seed<n>-trace<t>-<time_ns>.json;
    # the start time orders them even after the files are copied.
    for path in sorted(paths, key=lambda p: int(p[:-5].rsplit("-", 1)[1])):
        with open(path) as f:
            result = json.load(f)
        if result.get("trace", 0) == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def better(a, b, higher):
    """True if a is strictly better than b."""
    return a > b if higher else a < b


def judge(parent, change, bound, higher, claimed):
    """Verdict for one metric on one workload; returns (verdict, detail)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(better(c, p, higher) for p, c in pairs)
        gap = abs(cm - pm)
        met = (wins >= WINS_NEEDED * len(pairs) and better(cm, pm, higher)
               and gap > p3 - p1)
        return ("improved" if met else "not-met",
                "wins %d/%d, gap %.4g vs parent IQR %.4g"
                % (wins, len(pairs), gap, p3 - p1))
    if all(better(c, p, higher) for p in parent for c in change):
        return "ok", "every change run better"
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if spread > bound:
        return "unresolved", "parent spread %.1f%% > bound %.0f%%" % (
            100 * spread, 100 * bound)
    worse = (pm - cm) if higher else (cm - pm)
    if worse > bound * abs(pm):
        return "regressed", "worse by %.1f%% > bound %.0f%%" % (
            100 * worse / abs(pm), 100 * bound)
    return "ok", "within bound %.0f%%" % (100 * bound)


def fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def compare(parent_runs, change_runs, metrics, claims):
    """Rows of (workload, metric, p_med, p_q1, p_q3, c_med, c_q1, c_q3,
    verdict, detail) plus a failure-share row per workload."""
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            rows.append((workload, "-", None, None, None, None, None, None,
                         "missing", "no runs on one side"))
            continue
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change
                  if name in r["metrics"]]
            if not pv or not cv:
                continue
            verdict, detail = judge(pv, cv, m["bound"],
                                    m["better"] == "higher",
                                    (name, workload) in claims)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            rows.append((workload, name, pm, p1, p3, cm, c1, c3, verdict,
                         detail))
        pf, cf = fail_share(parent), fail_share(change)
        rows.append((workload, "fail_share", pf, pf, pf, cf, cf, cf,
                     "regressed" if cf > pf else "ok",
                     "failed / attempted over all runs"))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare perfbench result sets (parent vs change).")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[],
                    help="METRIC@WORKLOAD the change claims to improve")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args(argv)

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    claims = set()
    for c in args.claim:
        name, _, workload = c.partition("@")
        claims.add((name, workload))

    rows = compare(load_runs(args.parent), load_runs(args.change),
                   metrics, claims)
    fmt = "%-18s %-14s %24s %24s  %-10s %s"
    print(fmt % ("workload", "metric", "parent med [q1,q3]",
                 "change med [q1,q3]", "verdict", "detail"))
    for w, name, pm, p1, p3, cm, c1, c3, verdict, detail in rows:
        def cell(m, a, b):
            return "-" if m is None else "%.4g [%.4g,%.4g]" % (m, a, b)
        print(fmt % (w, name, cell(pm, p1, p3), cell(cm, c1, c3), verdict,
                     detail))
    return 0 if all(r[8] in ("ok", "improved") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
