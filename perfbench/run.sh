#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a greenviz checkout:
#
#   bash perfbench/run.sh --workload pipelines --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/perfbench"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

bin="$out/perfbench/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
cd "$root"
exec "$bin" "$@"
