#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it with the given arguments, e.g.
#
#   bash servebench/run.sh --workload compile-bound --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# scratch file stay under .bench_build/ there.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
