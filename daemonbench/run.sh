#!/usr/bin/env bash
# Builds influtrackd and the daemon benchmark from the checkout in the
# current directory, then runs the benchmark with the given flags. Every
# build product, cache and temporary file stays under .bench_build.
#
#   bash daemonbench/run.sh --workload checkin-histapprox --seed 1 --seconds 50 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/influtrackd" ./cmd/influtrackd
(cd daemonbench && go build -o "$out/daemonbench" .)
exec "$out/daemonbench" "$@"
