#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes, the Go
# build cache included, stays in .bench_build/ under that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off CGO_ENABLED=0
export XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof"

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -out "$build/trace" "$@"
