#!/usr/bin/env bash
# Builds the host-plane benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash hostbench/run.sh --workload drive-clean --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
