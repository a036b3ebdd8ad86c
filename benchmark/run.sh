#!/usr/bin/env bash
# Builds the benchmark and the flowschedd daemon from source into
# benchmark/out/build/ (Go build cache included, so nothing is written
# outside the checkout) and runs the benchmark with the arguments given.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload drain_deep --seed 1 --seconds 10 --trace 0
set -euo pipefail

build=$PWD/benchmark/out/build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOTOOLCHAIN=local

go build -o "$build/benchmark" ./benchmark
go build -o "$build/flowschedd" ./cmd/flowschedd
FLOWSCHEDD=$build/flowschedd exec "$build/benchmark" "$@"
