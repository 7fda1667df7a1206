#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload fig5 --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ so a run writes nothing outside the checkout. Outside a full
# checkout (no go.mod next to bench/) the build fails and so does the script.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/sensmart-bench" .)
exec "$out/sensmart-bench" "$@"
