#!/usr/bin/env bash
# run.sh — build the benchmark from source into the checkout and run it.
#
#   bash bench/run.sh --workload fleet1k_sync --seed 42 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# Go's build cache, the binary, spill files — stays under .bench_build/
# in the working directory; nothing is downloaded (the module has no
# dependencies). `go run ./bench` is the same program for interactive
# use, with Go's default cache locations.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
  echo "bench/run.sh: run from the repository root (go.mod and bench/ not found in $PWD)" >&2
  exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Every place the go command would write to or read settings from is
# pointed into the checkout, so the build does the same whatever HOME and
# the caller's Go environment hold.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go build -o "$build/fedzkt-bench" ./bench
exec "$build/fedzkt-bench" "$@"
