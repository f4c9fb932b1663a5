#!/usr/bin/env bash
# Builds campbench inside the checkout and runs it with the given arguments.
# Everything the build writes (Go's cache, the binaries) stays under
# .bench_build/ at the repository root.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$root/.bench_build/campbench" ./cmd/campbench)
cd "$root"
exec "$root/.bench_build/campbench" "$@"
