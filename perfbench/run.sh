#!/usr/bin/env bash
# Builds ccfd and the benchmark program from this checkout, then runs it
# with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload pushdown --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Builds, the Go build cache, daemon data
# directories and span dumps all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/ccfd" ./cmd/ccfd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -ccfd "$out/ccfd" "$@"
