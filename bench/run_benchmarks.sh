#!/usr/bin/env bash
# Runs the google-benchmark harness with machine-readable output so the
# repo accumulates a perf trajectory.
#
#   bench/run_benchmarks.sh [BUILD_DIR] [OUT_JSON]
#
# BUILD_DIR defaults to ./build, OUT_JSON to BENCH_runtime.json in the
# current directory.  The build must have been configured in Release
# (the default) with google-benchmark available; if bench_runtime was
# skipped at configure time this script reports that and exits 0 so CI
# smoke jobs degrade gracefully on hosts without the library.
#
# Each benchmark runs 5 repetitions and the JSON keeps only their
# aggregates (mean, median, stddev, cv): back-to-back single runs of
# one binary can differ by a third on a shared host, so one run is not
# a figure to compare.  Extra arguments after the first two are
# forwarded to bench_runtime after these defaults, so they win, e.g.
# --benchmark_filter=BM_SingleCheck or --benchmark_repetitions=1.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_runtime.json}"
shift $(( $# > 2 ? 2 : $# )) || true

BIN="$BUILD_DIR/bench_runtime"
if [[ ! -x "$BIN" ]]; then
  echo "run_benchmarks: $BIN not built (google-benchmark missing at" \
       "configure time?); skipping" >&2
  exit 0
fi

"$BIN" --benchmark_format=json --benchmark_out="$OUT_JSON" \
       --benchmark_out_format=json \
       --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
       "$@"

echo "run_benchmarks: wrote $OUT_JSON"
