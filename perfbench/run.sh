#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout. Without the repository's own go.mod
# beside perfbench/ the build fails and the script exits non-zero
# before printing anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans.jsonl" "$@"
