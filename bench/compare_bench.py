#!/usr/bin/env python3
"""Compare fresh BENCH_*.json files against committed baselines.

Usage: compare_bench.py [--threshold 0.25] <baseline_dir> <fresh_dir>

Walks every BENCH_*.json present in *both* directories, matches benchmark
rows by name, and fails (exit 1) if any row's real_time regressed by more
than its tolerance. Rows only present on one side are reported but never
fail the check (new benches have no baseline yet; retired ones have no fresh
number). Single-core CI runners are noisy, so the default threshold is the
generous 25% the CI bench job uses — this is a tripwire for serious
regressions, not a microbenchmark harness.

Files recorded with --benchmark_repetitions carry one row per repetition
plus aggregate rows. A row's time is then its `_median` aggregate, not
whichever repetition came last, and when the baseline has a `_cv` aggregate
the row's tolerance widens to max(threshold, CV_K * CV): a row is flagged
only when it moved by more than its own measured noise. Only the baseline's
CV counts, so a fresh run cannot raise its own limit by being noisier.
"""

import argparse
import glob
import json
import os
import sys

# Rows whose baseline has a `_cv` aggregate may grow by up to CV_K times it.
CV_K = 2.0


def load_rows(path):
    """Maps each benchmark row to {"time": real_time, "cv": fraction|None}.

    The time is the `_median` aggregate when the file has one for the row,
    else the row's (last) iteration; "cv" is the `_cv` aggregate, if any.
    """
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for b in data.get("benchmarks", []):
        agg = b.get("aggregate_name")
        name = b.get("run_name")
        if not name:
            name = b["name"]
            if agg and name.endswith("_" + agg):
                name = name[: -len(agg) - 1]
        row = rows.setdefault(name, {"time": None, "cv": None,
                                     "median": False})
        value = float(b["real_time"])
        if b.get("run_type") != "aggregate":
            if not row["median"]:
                row["time"] = value
        elif agg == "median":
            row["time"] = value
            row["median"] = True
        elif agg == "cv":
            row["cv"] = value
    return {name: {"time": r["time"], "cv": r["cv"]}
            for name, r in rows.items() if r["time"] is not None}


def tolerance(threshold, base):
    """Allowed relative growth of one row: max(threshold, CV_K * base CV)."""
    if base["cv"] is None:
        return threshold
    return max(threshold, CV_K * base["cv"])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="maximum allowed relative real_time growth")
    ap.add_argument("baseline_dir")
    ap.add_argument("fresh_dir")
    args = ap.parse_args()

    baseline_files = {os.path.basename(p)
                      for p in glob.glob(os.path.join(args.baseline_dir,
                                                      "BENCH_*.json"))}
    fresh_files = {os.path.basename(p)
                   for p in glob.glob(os.path.join(args.fresh_dir,
                                                   "BENCH_*.json"))}
    common = sorted(baseline_files & fresh_files)
    for name in sorted(baseline_files - fresh_files):
        print(f"note: {name} has no fresh run (skipped)")
    for name in sorted(fresh_files - baseline_files):
        print(f"note: {name} has no committed baseline (skipped)")
    if not common:
        print("error: no BENCH files to compare", file=sys.stderr)
        return 2

    regressions = []
    compared = 0
    for fname in common:
        base = load_rows(os.path.join(args.baseline_dir, fname))
        fresh = load_rows(os.path.join(args.fresh_dir, fname))
        for bench in sorted(base.keys() | fresh.keys()):
            if bench not in base:
                print(f"note: {fname}:{bench} is new (no baseline)")
                continue
            if bench not in fresh:
                print(f"note: {fname}:{bench} missing from fresh run")
                continue
            compared += 1
            b, f = base[bench]["time"], fresh[bench]["time"]
            tol = tolerance(args.threshold, base[bench])
            ratio = f / b if b > 0 else float("inf")
            status = "ok"
            if ratio > 1.0 + tol:
                status = "REGRESSION"
                regressions.append((fname, bench, b, f, ratio))
            print(f"{status:>10}  {fname}:{bench}  "
                  f"baseline={b:.3g}ns fresh={f:.3g}ns ratio={ratio:.2f} "
                  f"tolerance=+{tol:.0%}")

    print(f"\ncompared {compared} benchmark rows "
          f"across {len(common)} files; {len(regressions)} regression(s) "
          f"beyond their tolerance")
    if regressions:
        for fname, bench, b, f, ratio in regressions:
            print(f"  {fname}:{bench}: {b:.3g}ns -> {f:.3g}ns "
                  f"({ratio:.2f}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
