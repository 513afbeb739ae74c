#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Everything the build leaves behind stays in .bench_build.
#
#   bash benchmark/run.sh --workload experiments-quick --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh compare .bench_build/results [HEAD_RESULTS_DIR]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark: $root holds no ctjam sources to build" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the toolchain's telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
