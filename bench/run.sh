#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's arguments:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes — Go's build cache, its scratch directory, the
# binary — goes under .bench_build/ at the root of the checkout, and the run
# itself writes only bench/out/. In a directory that holds the benchmark but
# not the repository the build fails (the module this one replaces is
# missing) and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/nfvbench" .
exec "$build/nfvbench" "$@"
