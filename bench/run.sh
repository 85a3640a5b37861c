#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Everything it writes stays
# inside the checkout: the Go build cache and the binary under .bench_build/,
# traces and reports under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
