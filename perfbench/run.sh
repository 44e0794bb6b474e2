#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (Go build cache,
# binary) and every output file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
