#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs one workload:
#
#   bash fleetbench/run.sh --workload batch_mix --seed 1 --seconds 36 --trace 0
#
# The build cache, the binary, the replicas' stores and journals, and
# traced runs' span files all stay under .bench_build/ at the root of
# the checkout. Build errors exit nonzero before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .) >&2
cd "$root"
exec "$out/fleetbench" "$@"
