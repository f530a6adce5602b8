#!/usr/bin/env bash
# Builds the benchmark and the permined daemon from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mppm-genome --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

[ -f "$root/go.mod" ] || { echo "perfbench: run from the repository root" >&2; exit 1; }
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/permined" ./cmd/permined
exec "$out/perfbench" --daemon "$out/permined" --out "$out" "$@"
