#!/usr/bin/env bash
# Builds cxlperf from the checkout it sits in and runs it with the given
# arguments, e.g.
#
#   bash cmd/cxlperf/run.sh -workload serve -seed 3 -seconds 10 -trace 0
#
# The binary, the Go build cache and every temporary file the benchmark
# writes (durable-store directories, span files) stay under .bench_build/
# at the repository root, which .gitignore lists.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/cmd/cxlperf" build -o "$out/cxlperf" .
exec "$out/cxlperf" "$@"
