#!/bin/sh
# Builds and runs the repository benchmark from the repository root:
#
#   sh hawkbench/run.sh --workload detect-fastfair --seed 42 --seconds 30 --trace 0
#
# Every build product, Go build cache and scratch file stays under
# .bench_build/ in the checkout, so a run writes nothing outside it.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C hawkbench -o "$out/hawkbench" .
exec "$out/hawkbench" "$@"
