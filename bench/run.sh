#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload traffic-knee --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                       # every workload, one run each
#
# Everything the build writes (compiler cache, temp files, the binary)
# stays under .bench_build in the current directory, and the build never
# reaches the network: the module needs only the standard library and the
# repository it sits in.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
