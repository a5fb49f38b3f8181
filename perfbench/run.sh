#!/usr/bin/env bash
# Builds and runs the medexd benchmark from the root of a checkout:
#
#	bash perfbench/run.sh --workload ingest|query|mixed --seed N --seconds S --trace 0|1
#
# Every build product, database and temporary file stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
