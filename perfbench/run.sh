#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_tcp --seed 1 --seconds 15 --trace 0
#
# Every build artefact and cache stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
