#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload city_static --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the repository root, the Go build cache included.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
