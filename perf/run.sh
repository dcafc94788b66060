#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root,
# with the given arguments. Everything the build writes stays under
# .bench_build in the checkout, the Go build cache included, so a run
# touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
(cd perf && GOCACHE="$build/gocache" go build -o "$build/perf" .)
exec "$build/perf" "$@"
