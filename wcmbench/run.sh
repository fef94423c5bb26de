#!/usr/bin/env bash
# Builds the wcm3d benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash wcmbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, span dumps) stays
# under .bench_build in the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"

go -C "$bench_dir" build -o "$out/wcmbench" . >&2
cd "$root"
exec "$out/wcmbench" -root . -spans "$out/spans.json" "$@"
