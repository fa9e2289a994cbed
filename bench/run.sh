#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs it
# from there. The Go build cache, temporary and config directories are pointed
# inside .bench_build/ too, so building and running write nothing outside the
# checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C bench -o "$build/glapbench" .
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)" exec "$build/glapbench" "$@"
