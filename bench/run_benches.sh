#!/usr/bin/env bash
# Records the repo's perf trajectory: runs the benchmark binaries with
# --benchmark_out JSON and writes BENCH_<name>.json files at the repo root
# (committed so every PR's numbers are comparable). Benches with a parallel
# code path also record a serial baseline (WEG_NUM_THREADS=1) next to them as
# BENCH_<name>_serial.json, so speedup = serial real_time / parallel
# real_time can be computed per benchmark row without rebuilding anything.
# All produced files are written to temporaries and moved into place
# together, so an interrupted run never leaves a mixed-version trajectory.
#
# Usage:  bench/run_benches.sh [--filter <regex>] [--benchmark-arg <arg>]
#                              [build-dir]
#   --filter <regex>  only run benches whose name matches; the other BENCH
#                     files are left untouched. Registered benches (--help
#                     prints this list from the live registry):
#   --benchmark-arg <arg>
#                     extra flag passed through to every bench binary
#                     (repeatable; e.g. --benchmark-arg
#                     '--benchmark_filter=/(64|256)(/|$)' for the CI
#                     bench-smoke job's small-size rows).
#   --interleave <base-build-dir>
#                     before/after mode: record every selected bench from
#                     <base-build-dir> (say, a build of the parent commit)
#                     and from build-dir alternately, one repetition of each
#                     binary in each of 5 rounds, the first binary of a
#                     round alternating, so host drift hits both sides
#                     alike. Writes <build-dir>/interleaved/base/ and
#                     <build-dir>/interleaved/fresh/BENCH_<name>.json (plus
#                     the _serial baselines), one row per round and median /
#                     mean / stddev / cv aggregates each, for
#                       bench/compare_bench.py <build-dir>/interleaved/base \
#                         <build-dir>/interleaved/fresh
#                     The BENCH files at the repo root are left untouched.
#   build-dir         defaults to build/release
#
# Exits non-zero if any requested bench binary is missing (a silently
# skipped bench would otherwise read as "no regression" in CI).
set -euo pipefail
cd "$(dirname "$0")/.."

# name : binary : parallel (yes records an extra WEG_NUM_THREADS=1 baseline)
# Declared before arg parsing so --help can list every registered bench from
# the registry itself instead of a hand-maintained (and historically stale)
# enumeration in the header comment.
BENCHES=(
  "augtree:bench_augtree_construction:yes"
  "sort:bench_sort:no"
  "semisort:bench_semisort:yes"
  "hull:bench_hull:yes"
  "delaunay:bench_delaunay:yes"
  "kdtree_dynamic:bench_kdtree_dynamic:yes"
  "query_throughput:bench_query_throughput:yes"
  "sharded:bench_sharded:yes"
  "alpha_tradeoff:bench_alpha_tradeoff:no"
  "serving:bench_serving:yes"
)

FILTER=""
BUILD="build/release"
BENCH_ARGS=()
BASE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --filter)
      [[ $# -ge 2 ]] || { echo "--filter needs an argument" >&2; exit 2; }
      FILTER="$2"
      shift 2
      ;;
    --filter=*)
      FILTER="${1#--filter=}"
      shift
      ;;
    --benchmark-arg)
      [[ $# -ge 2 ]] || { echo "--benchmark-arg needs an argument" >&2; exit 2; }
      BENCH_ARGS+=("$2")
      shift 2
      ;;
    --benchmark-arg=*)
      BENCH_ARGS+=("${1#--benchmark-arg=}")
      shift
      ;;
    --interleave)
      [[ $# -ge 2 ]] || { echo "--interleave needs an argument" >&2; exit 2; }
      BASE="$2"
      shift 2
      ;;
    -h|--help)
      # Print the whole header comment block (everything between the shebang
      # and the first non-comment line), then the bench registry itself so
      # the list can never go stale relative to the BENCHES array.
      awk 'NR == 1 { next } /^#/ { sub(/^# ?/, ""); print; next } { exit }' \
        "$0"
      for entry in "${BENCHES[@]}"; do
        name="${entry%%:*}"
        rest="${entry#*:}"
        bin="${rest%%:*}"
        par="${rest#*:}"
        extra=""
        [[ "$par" == "yes" ]] && extra=" (+ serial baseline)"
        printf '  %-18s %s%s\n' "$name" "$bin" "$extra"
      done
      exit 0
      ;;
    *)
      BUILD="$1"
      shift
      ;;
  esac
done

selected=()
for entry in "${BENCHES[@]}"; do
  name="${entry%%:*}"
  if [[ -z "$FILTER" ]] || [[ "$name" =~ $FILTER ]]; then
    selected+=("$entry")
  fi
done
if [[ ${#selected[@]} -eq 0 ]]; then
  echo "no benches match --filter '$FILTER'" >&2
  exit 2
fi

missing=0
for entry in "${selected[@]}"; do
  bin="$(cut -d: -f2 <<<"$entry")"
  for dir in "$BUILD" ${BASE:+"$BASE"}; do
    if [[ ! -x "$dir/bench/$bin" ]]; then
      echo "missing bench binary: $dir/bench/$bin" >&2
      missing=1
    fi
  done
done
if [[ $missing -ne 0 ]]; then
  echo "build them first:" >&2
  echo "  cmake --preset release && cmake --build --preset release -j" >&2
  exit 1
fi

tmp=$(mktemp -d "$BUILD/bench_json.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

if [[ -n "$BASE" ]]; then
  ROUNDS=5
  OUT_DIR="$BUILD/interleaved"
  mkdir -p "$tmp/base" "$tmp/fresh"
  # run_round <side> <bin> <file> <round> [env...]: one repetition.
  run_round() {
    local side="$1" bin="$2" file="$3" round="$4"
    local dir="$BUILD"
    [[ "$side" == "base" ]] && dir="$BASE"
    shift 4
    env "$@" "$dir/bench/$bin" \
      --benchmark_out="$tmp/$side/$file.$round" --benchmark_out_format=json \
      ${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"} >/dev/null
  }
  for entry in "${selected[@]}"; do
    name="$(cut -d: -f1 <<<"$entry")"
    bin="$(cut -d: -f2 <<<"$entry")"
    par="$(cut -d: -f3 <<<"$entry")"
    modes=("BENCH_$name.json:")
    [[ "$par" == "yes" ]] && modes+=("BENCH_${name}_serial.json:WEG_NUM_THREADS=1")
    for mode in "${modes[@]}"; do
      file="${mode%%:*}"
      envs=()
      [[ -n "${mode#*:}" ]] && envs=("${mode#*:}")
      for ((r = 0; r < ROUNDS; ++r)); do
        echo "== $file round $((r + 1))/$ROUNDS =="
        if ((r % 2 == 0)); then order=(base fresh); else order=(fresh base); fi
        for side in "${order[@]}"; do
          run_round "$side" "$bin" "$file" "$r" ${envs[@]+"${envs[@]}"}
        done
      done
      for side in base fresh; do
        python3 - "$tmp/$side/$file" "$ROUNDS" <<'PY'
import json, statistics, sys
out, rounds = sys.argv[1], int(sys.argv[2])
docs = [json.load(open(f"{out}.{r}")) for r in range(rounds)]
merged = {"context": docs[0]["context"], "benchmarks": []}
merged["context"]["interleaved_rounds"] = rounds
names = [b["name"] for b in docs[0]["benchmarks"]]
for name in names:
    runs = [b for d in docs for b in d["benchmarks"] if b["name"] == name]
    for i, b in enumerate(runs):
        merged["benchmarks"].append(dict(b, run_name=name, repetitions=rounds,
                                         repetition_index=i))
    times = [b["real_time"] for b in runs]
    mean = statistics.mean(times)
    sd = statistics.stdev(times) if len(times) > 1 else 0.0
    for agg, value in (("mean", mean), ("median", statistics.median(times)),
                       ("stddev", sd), ("cv", sd / mean if mean else 0.0)):
        merged["benchmarks"].append({
            "name": f"{name}_{agg}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": agg,
            "repetitions": rounds, "real_time": value,
            "time_unit": runs[0].get("time_unit", "ns")})
json.dump(merged, open(out, "w"), indent=2)
PY
      done
    done
  done
  mkdir -p "$OUT_DIR/base" "$OUT_DIR/fresh"
  for side in base fresh; do
    mv "$tmp/$side"/BENCH_*.json "$OUT_DIR/$side/"
  done
  echo "wrote $OUT_DIR/{base,fresh}; compare with"
  echo "  bench/compare_bench.py $OUT_DIR/base $OUT_DIR/fresh"
  exit 0
fi

produced=()
for entry in "${selected[@]}"; do
  name="$(cut -d: -f1 <<<"$entry")"
  bin="$(cut -d: -f2 <<<"$entry")"
  par="$(cut -d: -f3 <<<"$entry")"
  echo "== $name (default threads: ${WEG_NUM_THREADS:-auto}) =="
  "$BUILD/bench/$bin" \
    --benchmark_out="$tmp/BENCH_$name.json" --benchmark_out_format=json \
    ${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}
  produced+=("BENCH_$name.json")
  if [[ "$par" == "yes" ]]; then
    if [[ "${WEG_NUM_THREADS:-}" == "1" ]]; then
      # The main run above was already serial; reuse it so the baseline can
      # never go stale relative to BENCH_$name.json.
      cp "$tmp/BENCH_$name.json" "$tmp/BENCH_${name}_serial.json"
    else
      echo "== $name (serial baseline, WEG_NUM_THREADS=1) =="
      WEG_NUM_THREADS=1 "$BUILD/bench/$bin" \
        --benchmark_out="$tmp/BENCH_${name}_serial.json" \
        --benchmark_out_format=json \
        ${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}
    fi
    produced+=("BENCH_${name}_serial.json")
  fi
done

for f in "${produced[@]}"; do
  mv "$tmp/$f" .
done
echo "wrote ${produced[*]}"
