#!/usr/bin/env bash
# Builds xvserve and the xvperf benchmark from this checkout, then runs the
# benchmark with the given arguments. Everything the build and the runs
# leave behind goes under .bench_build/ at the checkout root.
#
#   bash xvperf/run.sh --workload warm_read --seed 1 --seconds 10 --trace 0
#   bash xvperf/run.sh --steady 10 --seed 101 --workload warm_read --bench BENCHMARK.json
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off
(cd "$root" && go build -o "$out/xvserve" ./cmd/xvserve)
(cd "$root/xvperf" && go build -o "$out/xvperf" .)
exec "$out/xvperf" -xvserve "$out/xvserve" -work "$out/work" "$@"
