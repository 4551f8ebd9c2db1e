#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is started from and runs it
# with the given arguments. Everything the build writes (binary, Go build
# cache, module cache) stays under .bench_build/ of that checkout.
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local
go build -C bench -o "$build/cmpi-bench" .
exec "$build/cmpi-bench" "$@"
