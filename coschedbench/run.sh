#!/usr/bin/env bash
# Builds the coschedd benchmark and cmd/coschedd from source, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash coschedbench/run.sh --workload serve-fresh --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay inside the
# checkout, in $CARGO_TARGET_DIR (default .bench_build). Build output goes
# to stderr, so the benchmark's result stays the last line of stdout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# The commit, for the run context: only when this directory is itself a
# git checkout, never a repository further up.
sha=unknown
if [ -e .git ] && sha=$(git rev-parse HEAD 2>/dev/null); then
	[ -z "$(git status --porcelain 2>/dev/null)" ] || sha="$sha+dirty"
fi
export COSCHEDBENCH_GIT_SHA="$sha"

go -C coschedbench build -buildvcs=false -o "$out/coschedbench" . >&2
go -C coschedbench build -buildvcs=false -o "$out/coschedd" repro/cmd/coschedd >&2
exec "$out/coschedbench" "$@"
