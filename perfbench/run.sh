#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary store directories and the traced run's spans
# all stay under .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOENV=off GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" -spans "$build/spans.json" "$@"
