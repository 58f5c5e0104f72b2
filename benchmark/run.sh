#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the checkout's
# source, keeping every build output inside the checkout, and run it with
# the driver's arguments. The program builds higgsd itself, with the same
# environment.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/bin/higgs-benchmark" .)
exec "$build/bin/higgs-benchmark" "$@"
