#!/bin/sh
# profile.sh — capture CPU and heap pprof profiles for a named run.
#
# Usage: scripts/profile.sh [experiment-or-target] [outdir]
#
#   scripts/profile.sh                # profile the default target (fig4)
#   scripts/profile.sh all            # profile the whole 24-experiment suite
#   scripts/profile.sh fig10 /tmp/p   # profile one experiment, custom outdir
#   scripts/profile.sh insitu         # profile one pipeline run
#
# Builds the real greenviz binary (profiles of `go run` attribute time
# to the toolchain), runs the target serially (GOMAXPROCS=1 — the
# serial hot path is what the perf-ledger gates), and writes:
#
#   <outdir>/<target>.cpu.pprof    CPU profile of the run
#   <outdir>/<target>.heap.pprof   allocation profile (alloc_space and
#                                  inuse_space sample types)
#
# Inspect with:
#
#   go tool pprof -top <outdir>/<target>.cpu.pprof
#   go tool pprof -sample_index=alloc_space -top <outdir>/<target>.heap.pprof
#
# The run's stdout is discarded — profiling never feeds golden checks;
# use make golden for output regressions.
set -eu

cd "$(dirname "$0")/.."
target="${1:-fig4}"
outdir="${2:-profiles}"
mkdir -p "$outdir"

bin="$(mktemp -d)/greenviz"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/greenviz

cpu="$outdir/$target.cpu.pprof"
heap="$outdir/$target.heap.pprof"

# Pipeline flag names double as targets: anything the experiment
# registry doesn't know is handed to -pipeline.
if "$bin" -list | awk '{print $1}' | grep -qx "$target" || [ "$target" = all ]; then
    mode="-experiment"
else
    mode="-pipeline"
fi

GOMAXPROCS=1 "$bin" "$mode" "$target" -quiet \
    -cpuprofile "$cpu" -memprofile "$heap" >/dev/null

echo "wrote $cpu"
echo "wrote $heap"
echo "top CPU consumers:"
go tool pprof -top -nodecount 12 "$cpu" 2>/dev/null | sed -n '/flat/,$p' | head -13
echo "top allocators (alloc_space):"
go tool pprof -sample_index=alloc_space -top -nodecount 12 "$heap" 2>/dev/null | sed -n '/flat/,$p' | head -13
