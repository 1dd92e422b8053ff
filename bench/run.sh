#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload pilot-paper --seed 42 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary) stays
# under .bench_build/ at the repository root, and the toolchain is pinned to
# the local one with module downloads off, so a run never touches the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/bench" build -o "$build/tripwire-bench" .
cd "$root"
exec "$build/tripwire-bench" "$@"
