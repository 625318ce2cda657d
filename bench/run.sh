#!/usr/bin/env bash
# The driver's entry point: builds the benchmark and runs it with every
# cache, temp dir, data dir and report inside the checkout.
#
#   bash bench/run.sh --workload steady-66k --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
# Nothing is fetched: the module needs only the standard library and the
# repo around it.
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/bench"
go build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
