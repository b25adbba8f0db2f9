#!/usr/bin/env bash
# The driver's entry point. It keeps everything the Go toolchain writes
# inside the checkout (the benchmark may write nowhere else), builds the
# benchmark, and hands over; the benchmark builds cmd/sdg-worker itself.
# Run from the repository root:
#   bash bench/e2e/run.sh --workload kv_call --seed 1 --seconds 30 --trace 0
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="$PWD/.bench_build/gopath"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
go build -o .bench_build/e2e ./bench/e2e
exec .bench_build/e2e "$@"
