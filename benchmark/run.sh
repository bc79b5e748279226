#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# checkout's root. Everything the build writes stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
