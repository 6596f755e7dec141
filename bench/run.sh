#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source and
# runs it, keeping everything it writes (Go's build cache, the binary, the
# databases) inside the checkout, under .bench_build, and the result and trace
# files under bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/data"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/immortalbench" .)
exec "$build/immortalbench" -dir "$build/data" -out "$here/out" "$@"
