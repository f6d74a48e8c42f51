#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload small_chip --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and scratch files stay under
# .bench_build/ in the working directory; nothing is fetched (the
# benchmark imports only the standard library and the repository).
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

bin="$out/perfbench.$$"
(cd perfbench && go build -o "$bin" .) >&2
mv -f "$bin" "$out/perfbench"
exec "$out/perfbench" "$@"
