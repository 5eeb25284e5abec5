#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload halo-4k --seed 1 --seconds 20 --trace 0
#
# Build outputs (Go build cache, toolchain config and telemetry, binary)
# stay inside the checkout, under .bench_build. Outside a full checkout of
# the module the build fails and the script exits non-zero without printing
# a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
XDG_CONFIG_HOME="$out/config" go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
