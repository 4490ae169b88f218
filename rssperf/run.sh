#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it.
# Run from the repository root; arguments pass through to the binary:
#
#   bash rssperf/run.sh --workload retwis-replicated --seed 1 --seconds 5 --trace 0
#
# The Go build cache, temporary files, data directories and traces all
# stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/rssperf" && go build -o "$build/rssperf" .)
exec "$build/rssperf" --out "$build" "$@"
