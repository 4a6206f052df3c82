#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, e.g.
#
#   bash bench/run.sh --workload analyze --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh --seed 1 --out bench/out/run.json
#   bash bench/run.sh compare -base A.json -head B.json
#
# The binaries and the Go build cache live in .bench_build/ of the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C bench build -o "$build/upsimbench" .
exec "$build/upsimbench" "$@"
