#!/usr/bin/env bash
# Builds tubeperf from the checkout's sources into .bench_build and runs it
# from the repository root with the given arguments, e.g.
#
#   bash cmd/tubeperf/bench.sh --workload loop --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build, and
# module downloads are off: the module needs nothing beyond the
# repository and the standard library. A failed build exits nonzero
# before any result is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C cmd/tubeperf build -o "$out/tubeperf" .
exec "$out/tubeperf" "$@"
