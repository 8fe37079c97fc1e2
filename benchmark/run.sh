#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): builds gsvbench
# from this directory's own module and runs it with the given arguments.
# Everything built lands in .bench_build/ at the repository root, the Go
# build cache included, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOWORK=off
mkdir -p "$root/.bench_build/bin"
(cd "$here" && go build -o "$root/.bench_build/bin/gsvbench" .)
cd "$root"
exec "$root/.bench_build/bin/gsvbench" "$@"
