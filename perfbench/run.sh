#!/bin/sh
# Builds the benchmark and the d2mserver binary from the checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload engine_cold --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the go command's own state
# (XDG_CONFIG_HOME) stay under .bench_build.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/d2mserver" d2m/cmd/d2mserver) >&2
exec "$out/perfbench" -server "$out/d2mserver" "$@"
