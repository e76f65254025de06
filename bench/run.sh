#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash bench/run.sh --workload paper_cold --seed 1 [--seconds 30] [--trace 0|1]
#   bash bench/run.sh compare [-agree] A.json B.json
#
# The build and the run write only under .bench_build/ in the current
# directory: the Go build cache, the binary, traces and scratch files.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd bench && go build -o "$build/gemstone-bench" .)
exec "$build/gemstone-bench" "$@"
