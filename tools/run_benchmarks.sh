#!/usr/bin/env bash
# Runs the microbenchmarks and records the perf trajectory as JSON:
#   BENCH_extraction.json — serial vs parallel workload/arrival extraction
#     and the batched API, per trace size and thread count.
#   BENCH_curve_ops.json  — the curve-engine dispatch ladder (naive oracle vs
#     dense-tiled vs shape fast path vs memo-cache hit) at n ∈ {256, 1024,
#     4096} on convex/concave operands, the PWL compaction tier (10⁶-point
#     fit/expand), the dense fast path on blocky convex operands, plus the
#     PWL/sup-diff paths.
# Both land at the repo root (google-benchmark format; `context` carries host
# info — compare speedups only across runs with the same num_cpus).
#
# Each benchmark JSON is then enriched with a `wlc_env` envelope: git sha,
# CPU count, compiler/flags from the build cache, and the metric snapshot of
# a representative instrumented `wlc_analyze` run (extraction metrics for the
# extraction bench; curve.dispatch.*/curve.cache.* for the curve-ops bench) —
# so a checked-in benchmark file says exactly what was measured, on what,
# built how.
#
# Usage: tools/run_benchmarks.sh [benchmark args...]
#   e.g. tools/run_benchmarks.sh --benchmark_filter='ExtractUpperGrid'
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)" --target perf_extraction perf_curve_ops wlc_analyze

git_sha="$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)"
cxx_flags="$(grep -m1 '^CMAKE_CXX_FLAGS:' "$build/CMakeCache.txt" | cut -d= -f2- || true)"
build_type="$(grep -m1 '^CMAKE_BUILD_TYPE:' "$build/CMakeCache.txt" | cut -d= -f2- || true)"
compiler="$(grep -m1 '^CMAKE_CXX_COMPILER:' "$build/CMakeCache.txt" | cut -d= -f2- || true)"

# Wraps a benchmark JSON with the wlc_env provenance block; the metric
# snapshot of the representative run is passed as $METRICS_FILE.
add_env() {
  METRICS_FILE="$2" GIT_SHA="$git_sha" CXX_FLAGS="$cxx_flags" \
  BUILD_TYPE="$build_type" COMPILER="$compiler" METRICS_KEY="$3" \
  python3 - "$1" <<'PY'
import json, os, sys

path = sys.argv[1]
with open(path) as f:
    bench = json.load(f)
with open(os.environ["METRICS_FILE"]) as f:
    metrics = json.load(f)

bench["wlc_env"] = {
    "git_sha": os.environ["GIT_SHA"],
    "cpu_count": os.cpu_count(),
    "compiler": os.environ["COMPILER"],
    "build_type": os.environ["BUILD_TYPE"],
    "cxx_flags": os.environ["CXX_FLAGS"],
    os.environ["METRICS_KEY"]: metrics,
}
with open(path, "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
PY
}

"$build/bench/perf_extraction" \
  --benchmark_out="$repo/BENCH_extraction.json" \
  --benchmark_out_format=json \
  "$@"

# Representative instrumented run: the extraction pipeline over the checked-in
# polling fixture at full parallelism, metrics captured as JSON.
metrics="$(mktemp)"
"$build/tools/wlc_analyze" extract "$repo/tests/fixtures/polling_clean.csv" \
  --threads "$(nproc)" --metrics-out "$metrics" >/dev/null
add_env "$repo/BENCH_extraction.json" "$metrics" extract_metrics
rm -f "$metrics"
echo "wrote $repo/BENCH_extraction.json"

"$build/bench/perf_curve_ops" \
  --benchmark_out="$repo/BENCH_curve_ops.json" \
  --benchmark_out_format=json \
  "$@"

# Representative instrumented run for the curve engine: a GPC bounds
# analysis, which exercises all four operators; the snapshot carries the
# curve.dispatch.{fast,dense} and curve.cache.{hits,misses,evictions}
# counters the engine emitted.
metrics="$(mktemp)"
"$build/tools/wlc_analyze" bounds "$repo/tests/fixtures/polling_clean.csv" \
  --mhz 50 --metrics-out "$metrics" >/dev/null
add_env "$repo/BENCH_curve_ops.json" "$metrics" bounds_metrics
rm -f "$metrics"
echo "wrote $repo/BENCH_curve_ops.json"
