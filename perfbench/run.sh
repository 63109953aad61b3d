#!/usr/bin/env bash
# Builds the benchmark and cmd/listrankd from this checkout, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the
# checkout, the Go build cache included; no toolchain or module is
# downloaded and no user Go configuration is read.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/listrankd" ]; then
	echo "perfbench: $root holds no listrank checkout to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$here" build -o "$out/perfbench" .
go -C "$root" build -o "$out/listrankd" ./cmd/listrankd
exec "$out/perfbench" -root "$root" "$@"
