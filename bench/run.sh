#!/usr/bin/env bash
# Benchmark entry point (the "command" of BENCHMARK.json): builds the
# harness from the checkout it sits in and runs it with the given flags.
# Everything the build and the run write — Go's build cache included —
# stays under bench/out/, inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
out="$PWD/out"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/mdrs-benchmark" .
exec "$out/mdrs-benchmark" "$@"
