#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from the
# repository root:
#
#   bash benchmark/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, telemetry counters) stays under .bench_build in the current
# directory, and nothing is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"
