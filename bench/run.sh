#!/usr/bin/env bash
# Builds the benchmark and the schedd server from the sources of the
# checkout it is started in, then runs the benchmark with the given flags:
#
#   bash bench/run.sh --workload dvfs-queue --seed 0 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace files stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C bench build -o "$out/bench" .
go -C bench build -o "$out/schedd" repro/cmd/schedd
exec "$out/bench" --schedd "$out/schedd" --out "$out" "$@"
