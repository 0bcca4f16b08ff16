#!/usr/bin/env python3
"""Serving benchmark for the Strix software stack.

Builds ``strix_perfbench`` from the enclosing source tree (into
``.bench_build/perfbench`` at the repository root), runs one workload
once, and prints the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --slo-ms setI_saturate=250,... \\
        --workload toy_tenants_open --seed 7 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see perfbench/README.md). The line before the result
describes the host and the sample counts behind every percentile. A
copy of every result, with the git commit when one is known, is kept
under ``.bench_build/results`` for perfbench/compare.py; traced runs
also leave their spans there.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "strix_perfbench")

# Whole-run deadline, and the longest a first build may take.
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 850


def parse_slo(text):
    """Parse 'workload=ms,workload=ms' into a dict."""
    out = {}
    for item in text.split(","):
        name, _, ms = item.partition("=")
        out[name.strip()] = float(ms)
    return out


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the benchmark target. True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no source tree at", ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_DEADLINE_S).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "strix_perfbench",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_DEADLINE_S).returncode == 0


def git_commit():
    if os.environ.get("PERFBENCH_COMMIT"):
        return os.environ["PERFBENCH_COMMIT"]
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slo-ms", required=True, type=parse_slo,
                    help="latency limit per workload, "
                         "'name=ms,name=ms' (slo_ok_frac)")
    args = ap.parse_args()
    if args.workload not in args.slo_ms:
        log("perfbench: unknown workload", args.workload)
        return 2

    started = time.monotonic()
    try:
        if not build():
            log("perfbench: build failed")
            return 1
    except subprocess.TimeoutExpired:
        log("perfbench: build timed out")
        return 1

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                    time.time_ns())
    out_path = os.path.join(RESULTS_DIR, stem + ".json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--slo-ms", repr(args.slo_ms[args.workload]), "--out", out_path]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS_DIR, stem + "-spans.json")]
    # A first run pays for the build; later runs get the whole deadline.
    budget = max(RUN_DEADLINE_S - (time.monotonic() - started), 60)
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=budget).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if rc != 0:
        log("perfbench: run failed with code", rc)
        return 1

    with open(out_path) as f:
        result = json.load(f)
    result["host"]["git_commit"] = git_commit()
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps({"host": result["host"], "seed": result["seed"],
                      "window_s": result["window_s"],
                      "info": result["info"]}))
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed",
                                "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
