#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it; every argument goes to the benchmark. Run from the checkout
# root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 12 --trace 0
#
# The build cache and the binary live in .bench_build and run outputs in
# .perfbench, both inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
