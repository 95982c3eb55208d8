#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash pipebench/run.sh --workload sweep-solve --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOENV=off

# VCS stamping puts the commit into the provenance record; a tree whose
# version-control status cannot be read builds without it.
go build -o "$build/pipebench" ./pipebench 2>/dev/null ||
	go build -buildvcs=false -o "$build/pipebench" ./pipebench
exec "$build/pipebench" --workdir "$build/work" "$@"
