#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload corpus-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, server
# journal, trace files) stays under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/config" "$work/gopath"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath"
export XDG_CONFIG_HOME="$work/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --workdir "$work" "$@"
