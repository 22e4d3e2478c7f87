#!/usr/bin/env bash
# Builds the benchmark and the program it measures from source, then runs
# it. Run from anywhere: build caches, the binary and the replicas' disk
# stores all live under .bench_build/ at the repository root. Arguments
# pass through to the benchmark (see main.go):
#
#   bash perfbench/run.sh --workload ezbft-mesh --seed 1 --seconds 36 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -dir "$out" "$@"
