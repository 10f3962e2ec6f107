#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source and
# runs it from the checkout root. Everything the build writes (Go build
# cache, binary) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/periscope-bench" .) >&2
cd "$root"
exec "$build/periscope-bench" "$@"
