#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (Go build cache, the perfbench binary, generated
# inputs and profiles) stays under .bench_build at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build/work" "$@"
