#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (binary, Go build cache) stays in .bench_build/
# inside the checkout; nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$build/bytecard-benchmark" . >&2
exec "$build/bytecard-benchmark" "$@"
