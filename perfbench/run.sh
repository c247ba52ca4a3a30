#!/usr/bin/env bash
# Builds pmtestd and the benchmark from source, then runs one benchmark
# workload. Run it from the root of a pmtest checkout:
#
#   bash perfbench/run.sh --workload kv_tx --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing is
# written anywhere else.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pmtestd || ! -f perfbench/go.mod ]] || ! grep -q '^module pmtest$' go.mod; then
	echo "perfbench: run from the root of a pmtest checkout (go.mod, cmd/pmtestd and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$root/$out
mkdir -p "$out"

# Keep the go command's cache, module cache and config inside the build
# directory, ignore GOFLAGS from the environment, and never let it fetch
# a toolchain or a module.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

go build -o "$out/pmtestd" ./cmd/pmtestd
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -pmtestd "$out/pmtestd" -span-dir "$out/spans" "$@"
