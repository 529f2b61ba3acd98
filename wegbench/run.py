#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 wegbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        Builds the benchmark (once, incrementally) into .bench_build/wegbench,
        runs one workload with WEG_NUM_THREADS=4, and prints its provenance,
        a metric table and, last, one JSON result line. Exits non-zero when a
        correctness check fails or the result does not list exactly the
        metrics BENCHMARK.json names.

    python3 wegbench/run.py --steady <N> --workload <name|all> [--seed <first>]
        Steadiness mode: N runs per workload on seeds first..first+N-1, then
        per metric the median, quartiles, (q3-q1)/median and (max-min)/median.

    python3 wegbench/run.py --test
        Builds and runs the benchmark's own tests.

Run it from anywhere inside a weg checkout; it only reads and writes inside
that checkout.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wegbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ["serve_knn_readmostly", "build_static"]
THREADS = "4"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "serve" / "engine.h"
    ).is_file():
        raise SystemExit(f"wegbench: no weg sources in {ROOT}; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
            stdout=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", "4", "--target", target],
        check=True,
        stdout=sys.stderr,
    )


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return p.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    """The metrics BENCHMARK.json publishes for this mode, by name."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["per_layer" if trace else "end_to_end"]}


def publish(raw, trace):
    """Turns the binary's result into the published one.

    BENCHMARK.json is the one list of metrics and units. A name it does not
    list is an error; so is a missing end-to-end metric. A missing per-layer
    metric is a layer the workload does not run, and reads 0.
    """
    declared = declared_metrics(trace)
    got = raw.get("metrics", {})
    ok = raw.get("correct") is True
    unknown = sorted(set(got) - set(declared))
    missing = sorted(set(declared) - set(got))
    if unknown:
        log(f"wegbench: metrics not in BENCHMARK.json: {unknown}")
        ok = False
    if missing and not trace:
        log(f"wegbench: end-to-end metrics not measured: {missing}")
        ok = False
    metrics = {
        name: {"value": got.get(name, 0), "unit": m["unit"]}
        for name, m in declared.items()
    }
    return {
        "correct": ok,
        "attempted": raw.get("attempted", 0),
        "failed": raw.get("failed", 0),
        "metrics": metrics,
    }


def run_once(workload, seed, seconds, trace, rate=None):
    """Runs the benchmark binary once.

    Returns (ok, the binary's diagnostic lines, the published result).
    """
    cmd = [
        str(BUILD / "wegbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--git-sha", git_sha(),
        "--out-dir", str(OUT),
    ]
    if rate:
        cmd += ["--rate", str(rate)]
    env = dict(os.environ, WEG_NUM_THREADS=THREADS)
    try:
        p = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log(f"wegbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return False, [], None
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        log(f"wegbench: the benchmark binary exited with {p.returncode}")
        return False, lines, None
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("wegbench: last line is not a JSON result")
        return False, lines, None
    result = publish(raw, trace)
    if raw.get("correct") is not True:
        log("wegbench: a correctness check failed")
    return result["correct"], lines[:-1], result


def steady(workloads, first_seed, n, seconds, trace, rate=None):
    """Repeats each workload n times and prints per-metric spreads."""
    bounds = {k: v.get("bound") for k, v in declared_metrics(trace).items()}
    all_ok = True
    for w in workloads:
        values = {}
        for i in range(n):
            ok, _, result = run_once(w, first_seed + i, seconds, trace, rate)
            all_ok = all_ok and ok
            if result is None:
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"{w} seed {first_seed + i}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        print(f"== {w}: {n} runs, seeds {first_seed}..{first_seed + n - 1}")
        print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(xs) - min(xs)) / med if med else 0.0
            bound = bounds.get(name)
            flag = " !" if bound and iqr > bound / 3 else ""
            print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f} "
                  f"{rng:8.4f} {bound if bound else '':>6}{flag}")
        sys.stdout.flush()
    return all_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--rate", type=float, help="override the workload's fixed rate")
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--test", action="store_true")
    a = ap.parse_args()

    if a.test:
        build("wegbench_tests")
        env = dict(os.environ, WEG_NUM_THREADS=THREADS)
        return subprocess.run([str(BUILD / "wegbench_tests")], env=env, cwd=ROOT).returncode

    if a.workload not in WORKLOADS + (["all"] if a.steady else []):
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seconds = int(a.seconds) if a.seconds == int(a.seconds) else a.seconds
    build("wegbench")
    if a.steady:
        ws = WORKLOADS if a.workload == "all" else [a.workload]
        return 0 if steady(ws, a.seed, a.steady, seconds, a.trace, a.rate) else 1

    ok, lines, result = run_once(a.workload, a.seed, seconds, a.trace, a.rate)
    for line in lines:
        print(line)
    if result is None:
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:40} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
