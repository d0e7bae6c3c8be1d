#!/bin/sh
# bench.sh — run the repo benchmark set and record a JSON summary.
#
# Usage: scripts/bench.sh output.json
#
# The output path is required and must not be a git-tracked file, so a
# run never overwrites a committed BENCH_*.json baseline; name a new
# ledger (BENCH_pr<N>.json) or a scratch file.
#
# Four passes feed one JSON file:
#
#   1. The comparison pass: the hot-path micro-benchmarks (render,
#      checkpoint encode, fault hooks, no-consumer stage dispatch, the
#      telemetry bus's no-consumer and fan-out emit paths),
#      the greenvizd service-layer benchmarks, the campaign engine's
#      sweep expansion and report aggregation over a 256-point spec,
#      and the result store's warm-hit read+CRC-verify latency, at the
#      default GOMAXPROCS with a time-based benchtime so the numbers
#      are steady-state. Each benchmark runs COUNT (default 3) times and
#      the minimum ns/op is recorded — min-of-N is far more stable
#      than a single sample against scheduler noise, which is what
#      makes bench_compare's 10% gate usable. Names are recorded bare
#      (no -N suffix) so they stay comparable across BENCH_*.json
#      generations.
#   1b. The suite pass: the serial-vs-parallel full-suite pair, one
#      iteration each (they run the whole 24-experiment registry,
#      ~30 s/op).
#   2. The kernel pass: the serial hot kernels (heat/ocean
#      BenchmarkStep128, viz BenchmarkRender512 (a 32×32 hot spot),
#      BenchmarkRenderFrame (heat and ocean pipeline frames),
#      BenchmarkEncodePNG512 and BenchmarkEncodePNG512Ocean (an
#      annotated heat and ocean frame), BenchmarkCompressField,
#      checkpoint BenchmarkCheckpointEncode), the event kernel (sim
#      BenchmarkEngineScheduleFire: one event scheduled and fired)
#      and the storage layer (fio BenchmarkRandWrite and
#      BenchmarkRandRead: one 64 MiB random-write or random-read test
#      on a fresh node, page-cache range bookkeeping, the disk model
#      and the event kernel; storage BenchmarkCacheRandom: a page cache
#      over a disk taking 16,384 random 16 KiB writes, an fsync and
#      16,384 random reads over 256 MiB, the perfbench fio scale, where
#      the range sets hold thousands of ranges) at -cpu 1, also
#      min-of-COUNT.
#      Names are recorded as pkg/Benchmark so kernels with equal
#      benchmark names stay apart.
#   3. The store pass: the result store's fsync-bound benchmarks (the
#      cold durable write path and steady-state LRU eviction) at a
#      fixed 200 iterations, 3 times, min-of-3, recorded bare like the
#      comparison pass. A time-based benchtime let them grow to about
#      10,000 fsynced writes, and on a slow device one stalled in fsync
#      for minutes; a fixed count bounds the writes, and running the
#      pass last keeps every other row recorded. Its wall time is
#      printed.
#
# Host details (CPU model, core count) are recorded so runs on
# different hosts are not mistaken for regressions.
set -eu

cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh output.json" >&2
    exit 2
fi
out="$1"
if git ls-files --error-unmatch -- "$out" >/dev/null 2>&1; then
    echo "bench.sh: $out is tracked by git; refusing to overwrite a committed ledger" >&2
    exit 2
fi
raw="$(mktemp)"
rawk="$(mktemp)"
trap 'rm -f "$raw" "$rawk"' EXIT

go test -run '^$' \
    -bench '^(BenchmarkRender|BenchmarkCheckpointEncode|BenchmarkHooksDisabled|BenchmarkHooksEnabled|BenchmarkDoNoConsumer|BenchmarkTelemetryNoConsumer|BenchmarkTelemetryFanout|BenchmarkServiceThroughput|BenchmarkSubmitDedup|BenchmarkSpecDigest|BenchmarkStoreGetHit|BenchmarkCampaignExpand|BenchmarkCampaignAggregate)$' \
    -benchmem -benchtime "${BENCHTIME:-1s}" -count "${COUNT:-3}" \
    . ./internal/fault ./internal/core/stagegraph ./internal/telemetry ./internal/service ./internal/resultstore ./internal/campaign | tee "$raw"

go test -run '^$' \
    -bench '^(BenchmarkSuiteAllSerial|BenchmarkSuiteAllParallel)$' \
    -benchmem -benchtime "${SUITE_BENCHTIME:-1x}" -count "${SUITE_COUNT:-1}" \
    . | tee -a "$raw"

go test -run '^$' \
    -bench '^(BenchmarkStep128|BenchmarkRender512|BenchmarkRenderFrame|BenchmarkEncodePNG512|BenchmarkEncodePNG512Ocean|BenchmarkCompressField|BenchmarkCheckpointEncode|BenchmarkEngineScheduleFire|BenchmarkRandWrite|BenchmarkRandRead|BenchmarkCacheRandom)$' \
    -benchmem -benchtime "${KERNEL_BENCHTIME:-1s}" -count "${COUNT:-3}" \
    -cpu 1 \
    ./internal/heat ./internal/ocean ./internal/viz ./internal/checkpoint ./internal/sim ./internal/fio ./internal/storage | tee "$rawk"

store_start=$(date +%s)
go test -run '^$' \
    -bench '^(BenchmarkStorePutCold|BenchmarkStoreEvict)$' \
    -benchmem -benchtime 200x -count 3 \
    ./internal/resultstore | tee -a "$raw"
echo "bench.sh: store pass took $(($(date +%s) - store_start)) s"

awk -v ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
BEGIN { n = 0; kernel = 0 }
FNR == 1 { kernel = (FILENAME == ARGV[2]) }
/^pkg:/ { pkg = $2; sub(/^.*\//, "", pkg) }
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    if (kernel) { name = pkg "/" name } else { sub(/-[0-9]+$/, "", name) }
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i-1)
        if ($(i) == "B/op")      bytes = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    # -count N repeats each benchmark; keep the fastest run (min ns/op).
    if (name in best && best[name] <= ns + 0) next
    if (!(name in best)) order[n++] = name
    best[name] = ns + 0
    line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    line = line "}"
    lines[name] = line
}
END {
    print "{"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"cores\": %s,\n", (ncpu == "" ? 0 : ncpu)
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[order[i]], (i < n-1 ? "," : "")
    print "  ]"
    print "}"
}' "$raw" "$rawk" > "$out"

echo "wrote $out"
