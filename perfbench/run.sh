#!/usr/bin/env bash
# Builds msrnetd and the benchmark program from this checkout, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-ard --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/msrnetd || ! -d internal/core || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an msrnet checkout (needs go.mod, cmd/msrnetd, internal/core)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/msrnetd" ./cmd/msrnetd
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
