#!/usr/bin/env bash
# Builds kvbench from this checkout and runs it with the given
# arguments, e.g.:
#   bash kvbench/run.sh --workload read-uniform --seed 1 --seconds 10 --trace 0
# The binary and the Go build cache live in .bench_build/ at the root of
# the checkout, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/kvbench" .)
exec "$out/kvbench" "$@"
