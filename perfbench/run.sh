#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-sampled --seed 1 --seconds 30 --trace 0
#
# Build caches, the binary and traced runs' spans stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
