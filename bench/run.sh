#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it in the foreground as the one
# process; the Go build and module caches live there too, so nothing is
# written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
