#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given. Everything the build and the run write stays under
# .bench_build in that checkout, the Go build cache included.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/swbench" ./benchmark
exec "$build/swbench" -workdir "$build" "$@"
