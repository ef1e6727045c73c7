#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload pushpull-exact-16k --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write (Go build cache, go command
# config and telemetry, binary, results, spans) stays under the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
