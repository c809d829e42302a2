#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fanout|join|hot --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
