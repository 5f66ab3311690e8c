#!/usr/bin/env bash
# Builds the benchmark from the source in the current directory (the root of
# a checkout) and runs it with the given arguments. Everything the build
# and the run write stays under .bench_build/ in that directory.
#
#   bash bench/run.sh --workload switch-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOENV=off
go build -C bench -o "$out/lzperf" .
exec "$out/lzperf" "$@"
