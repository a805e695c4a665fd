#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given flags:
#
#   bash perfbench/run.sh --workload lock-array --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# span dumps go to .bench_build there, so nothing is written outside the
# checkout.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
