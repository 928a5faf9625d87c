#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the root of the repository:
#
#   bash bench/run.sh -workload exchange-ladder -seed 1 -seconds 20 -trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the go command's temporary and
# config directories, the benchmark binary and the workloads' scratch
# stores.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
