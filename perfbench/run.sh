#!/usr/bin/env bash
# Builds the benchmark from source and runs it (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload e15-internet --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, traces
# and deployment logs all stay under .bench_build/ there; nothing is
# fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
