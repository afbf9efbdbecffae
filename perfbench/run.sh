#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload suite-inproc --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything it builds or writes stays under
# .bench_build/ in the checkout: the Go build cache, and the go command's
# own configuration and telemetry directory.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go telemetry off >/dev/null 2>&1 || true
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
