#!/usr/bin/env bash
# Builds custodyperf from this checkout's sources and runs it with the given
# flags, for example:
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: the Go build cache, the binary, service state and
# trace files. The build needs the repository's own module next to bench/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
(cd bench && go build -o "$out/custodyperf" ./cmd/custodyperf)
exec "$out/custodyperf" -dir "$out" "$@"
