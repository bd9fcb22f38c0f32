#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness into the
# checkout's .bench_build (Go build cache included, so nothing is written
# outside the checkout) and runs it from the repository root.
set -eu
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOWORK=off
go -C "$bench" build -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
