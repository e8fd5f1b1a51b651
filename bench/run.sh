#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds ndbench and ndserve
# from the checkout's source, then runs ndbench with the caller's flags
# (--workload --seed --seconds --trace). Everything it writes — build
# cache, binaries, snapshots, span files — stays under .bench_build/ at
# the root of the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$bench" build -o "$build/ndbench" ./ndbench
go -C "$bench" build -o "$build/ndserve" ndsearch/cmd/ndserve
exec "$build/ndbench" -ndserve "$build/ndserve" -work "$build/tmp" -out "$build/out" "$@"
