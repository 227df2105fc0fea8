#!/usr/bin/env bash
# Benchmark workflow — a thin wrapper over cmd/benchgate, the
# statistical benchmark gate (see benchmarks/README.md).
#
#   scripts/bench.sh            run benchmarks -> benchmarks/latest.txt, print the gate report
#   scripts/bench.sh baseline   run, then rewrite the go-test entries of benchmarks/baseline.json
#   scripts/bench.sh compare    run, gate against the baseline, append the run to the trajectory
#
# Every mode checks the ratio table in benchmarks/baseline.json
# (portfolio parallel speedup, delta replanning, learned selection);
# baseline refuses to write a run that fails it.
#
# Environment:
#   BENCH_TIME        -benchtime (default 30x; the microsecond BenchmarkHeuristic
#                     arms always run 10000x and BenchmarkFleetRoute 300x, see
#                     run_bench)
#   BENCH_COUNT       rounds: each runs every package's benchmarks once (-count 1), and
#                     the rounds feed the median/MAD aggregation (default 10)
#   BENCH_LABEL       trajectory label (default: the short git SHA, "+dirty" when
#                     the tree has uncommitted changes)
#   BENCH_TRAJECTORY  append-only NDJSON trajectory (default benchmarks/trajectory.ndjson)
#   BENCHGATE_FLAGS   extra flags passed to benchgate (e.g. "-tol-ns 50")
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_DIR=benchmarks
LATEST=$BENCH_DIR/latest.txt
BASELINE=$BENCH_DIR/baseline.json
BENCH_TIME=${BENCH_TIME:-30x}
BENCH_COUNT=${BENCH_COUNT:-10}
if [ -z "${BENCH_LABEL:-}" ]; then
  BENCH_LABEL=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    BENCH_LABEL+=+dirty
  fi
fi
BENCH_TRAJECTORY=${BENCH_TRAJECTORY:-$BENCH_DIR/trajectory.ndjson}
BENCHGATE_FLAGS=${BENCHGATE_FLAGS:-}

# bench_pkg PKG PATTERN BENCHTIME runs one package's compiled test
# binary once (-count 1) from the package directory, as go test would.
bench_pkg() {
  (cd "internal/$1" && "$BIN_DIR/$1.test" -test.run '^$' -test.bench "$2" -test.benchmem \
    -test.benchtime "$3" -test.count 1)
}

run_bench() {
  mkdir -p "$BENCH_DIR"
  BIN_DIR=$(mktemp -d)
  trap 'rm -rf "$BIN_DIR"' EXIT
  for pkg in portfolio des serve fleet sched; do
    go test -c -o "$BIN_DIR/$pkg.test" "./internal/$pkg"
  done
  # Each round runs every package once, so the two arms of a ratio row
  # (BenchmarkDESPortfolioHighRate/delta and /full, the two
  # BenchmarkSelectorSweep modes) are measured seconds apart in the same
  # host phase, BENCH_COUNT times over, instead of each arm's
  # BENCH_COUNT repetitions running back to back minutes apart.
  {
    for ((round = 0; round < BENCH_COUNT; round++)); do
      bench_pkg portfolio 'BenchmarkPortfolio|BenchmarkSelector' "$BENCH_TIME"
      bench_pkg des 'BenchmarkDES' "$BENCH_TIME"
      bench_pkg serve 'BenchmarkServe' "$BENCH_TIME"
      # BenchmarkFleetRoute, the first fleet arm, read bimodal at 30x
      # (about 200 or 340 us per op from one round to the next, with
      # its untimed warm-up op); at 300x its rounds agree.
      bench_pkg fleet '^BenchmarkFleetRoute$' 300x
      bench_pkg fleet 'BenchmarkFleet(DES|RouteLong)' "$BENCH_TIME"
      # A BenchmarkHeuristic op takes microseconds: over 30 iterations one
      # pooled-buffer refill moves B/op by about 54 bytes, so whether a run
      # caught a refill decided the B/op gate. At 10000 iterations a refill
      # no longer shows and every run reads the same B/op.
      bench_pkg sched 'BenchmarkHeuristic' 10000x
    done
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
