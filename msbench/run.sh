#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash msbench/run.sh --workload tpch --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and the spans of traced runs stay in
# .bench_build/ under the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

(cd "$root/msbench" && go build -o "$build/msbench" .)
exec "$build/msbench" "$@"
