#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from the checkout's own
# sources and runs it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything it writes stays under .bench_build/ in the checkout: the build
# cache, the binary, and (through the binary's default -out) scratch files,
# daemon state and trace files. Run it from the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
