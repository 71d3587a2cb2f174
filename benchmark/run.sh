#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository:
#
#   bash benchmark/run.sh --workload kernels --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays in .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -f benchmark/go.mod ]]; then
	echo "benchmark/run.sh: run from the repository root (go.mod not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the checkout as well.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
