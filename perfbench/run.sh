#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload exact --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
