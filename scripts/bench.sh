#!/usr/bin/env bash
# Benchmark workflow — a thin wrapper over cmd/benchgate, the
# statistical benchmark gate (see benchmarks/README.md).
#
#   scripts/bench.sh            run benchmarks -> benchmarks/latest.txt, print the gate report
#   scripts/bench.sh baseline   run, then rewrite the go-test entries of benchmarks/baseline.json
#   scripts/bench.sh compare    run, gate against the baseline, write the trajectory artifact
#
# Every mode checks the ratio table in benchmarks/baseline.json
# (portfolio parallel speedup, delta replanning, learned selection);
# baseline refuses to write a run that fails it.
#
# Environment:
#   BENCH_TIME        -benchtime (default 30x)
#   BENCH_COUNT       -count: repeated runs feeding the median/MAD aggregation (default 10)
#   BENCH_LABEL       trajectory label (default "PR 10")
#   BENCH_TRAJECTORY  trajectory artifact path (default BENCH_10.json)
#   BENCHGATE_FLAGS   extra flags passed to benchgate (e.g. "-tol-ns 50")
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_DIR=benchmarks
LATEST=$BENCH_DIR/latest.txt
BASELINE=$BENCH_DIR/baseline.json
BENCH_TIME=${BENCH_TIME:-30x}
BENCH_COUNT=${BENCH_COUNT:-10}
BENCH_LABEL=${BENCH_LABEL:-"PR 10"}
BENCH_TRAJECTORY=${BENCH_TRAJECTORY:-BENCH_10.json}
BENCHGATE_FLAGS=${BENCHGATE_FLAGS:-}

run_bench() {
  mkdir -p "$BENCH_DIR"
  {
    go test -run '^$' -bench 'BenchmarkPortfolio|BenchmarkSelector' -benchmem -benchtime "$BENCH_TIME" \
      -count "$BENCH_COUNT" ./internal/portfolio
    go test -run '^$' -bench 'BenchmarkDES' -benchmem -benchtime "$BENCH_TIME" \
      -count "$BENCH_COUNT" ./internal/des
    go test -run '^$' -bench 'BenchmarkServe' -benchmem -benchtime "$BENCH_TIME" \
      -count "$BENCH_COUNT" ./internal/serve
    go test -run '^$' -bench 'BenchmarkFleet' -benchmem -benchtime "$BENCH_TIME" \
      -count "$BENCH_COUNT" ./internal/fleet
    go test -run '^$' -bench 'BenchmarkHeuristic' -benchmem -benchtime "$BENCH_TIME" \
      -count "$BENCH_COUNT" ./internal/sched
  } | tee "$LATEST"
}

gate() {
  # BenchmarkServeLoad/* budgets come from scripts/loadtest.sh runs, not
  # from go test, so they are out of scope here (and kept by -update).
  # shellcheck disable=SC2086  # BENCHGATE_FLAGS is intentionally word-split
  go run ./cmd/benchgate -baseline "$BASELINE" -skip '^BenchmarkServeLoad' \
    $BENCHGATE_FLAGS "$@" "$LATEST"
}

case "${1:-run}" in
  run)
    run_bench
    gate
    ;;
  baseline)
    run_bench
    gate -update
    echo "promoted $LATEST -> $BASELINE"
    ;;
  compare)
    run_bench
    gate -trajectory "$BENCH_TRAJECTORY" -label "$BENCH_LABEL"
    ;;
  *)
    echo "usage: scripts/bench.sh [run|baseline|compare]" >&2
    exit 2
    ;;
esac
