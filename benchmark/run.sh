#!/usr/bin/env bash
# Builds the sparrow CLI and the benchmark from the checkout in the current
# directory, then runs the benchmark with this script's arguments:
#
#   bash benchmark/run.sh --workload sparse-4k --seed 7 --seconds 18 --trace 0
#
# Binaries, the Go build cache, inputs and results all stay under
# .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/sparrow" ./cmd/sparrow
go -C benchmark build -o "$build/bin/bench" .
go -C benchmark build -o "$build/bin/spawn" ./spawn
exec "$build/bin/bench" -sparrow "$build/bin/sparrow" -spawn "$build/bin/spawn" "$@"
