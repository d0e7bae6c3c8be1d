#!/bin/sh
# bench_compare.sh — fail on benchmark regressions against a baseline.
#
# Usage: scripts/bench_compare.sh new.json [baseline.json]
#
# new.json, the ledger to check, is required (write it with
# scripts/bench.sh). The baseline defaults to the newest committed
# BENCH_*.json other than new.json (by PR number).
# Benchmarks are matched by name; ones present in only one file are
# reported but don't fail the check (new kernels have no baseline, and
# retired benchmarks leave one behind). A matched benchmark fails when
# its ns/op exceeds the baseline by more than THRESHOLD percent
# (default 10), or — the allocation gates — when its allocs/op or
# B/op exceed the baseline by more than ALLOC_THRESHOLD percent
# (default 10). Allocation counts are deterministic, so the separate
# threshold can be pinned tight without scheduler-noise false alarms;
# ns/op drift never excuses an allocation regression. Kernel scaling
# rows (-2/-4 cpu suffix) are reported but never fail: on a host with
# fewer cores they measure oversubscription jitter, not performance —
# the unsuffixed serial rows carry the regression signal. Comparisons
# across hosts with different core counts are refused unless FORCE=1.
set -eu

cd "$(dirname "$0")/.."
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/bench_compare.sh new.json [baseline.json]" >&2
    exit 2
fi
new="$1"
base="${2:-}"
threshold="${THRESHOLD:-10}"

if [ -z "$base" ]; then
    # Version sort, not lexical: BENCH_pr10.json is newer than
    # BENCH_pr9.json.
    base="$(git ls-files 'BENCH_*.json' | grep -v "^$new\$" | sort -V | tail -1)"
fi
if [ -z "$base" ] || [ ! -f "$base" ]; then
    echo "bench_compare: no committed baseline BENCH_*.json found" >&2
    exit 1
fi
if [ ! -f "$new" ]; then
    echo "bench_compare: $new not found (run scripts/bench.sh first)" >&2
    exit 1
fi

alloc_threshold="${ALLOC_THRESHOLD:-10}"

echo "comparing $new against baseline $base (ns threshold ${threshold}%, alloc threshold ${alloc_threshold}%)"
NEW="$new" BASE="$base" THRESHOLD="$threshold" ALLOC_THRESHOLD="$alloc_threshold" FORCE="${FORCE:-0}" python3 - <<'EOF'
import json, os, re, sys

new = json.load(open(os.environ["NEW"]))
base = json.load(open(os.environ["BASE"]))
threshold = float(os.environ["THRESHOLD"])
alloc_threshold = float(os.environ["ALLOC_THRESHOLD"])

if os.environ["FORCE"] != "1" and new.get("cores") != base.get("cores"):
    print(f"bench_compare: host core counts differ ({new.get('cores')} vs "
          f"{base.get('cores')}); numbers are not comparable (FORCE=1 overrides)")
    sys.exit(1)

bnew = {b["name"]: b for b in new["benchmarks"]}
bbase = {b["name"]: b for b in base["benchmarks"]}

# The allocation gates compare each metric with its own threshold;
# metrics absent from either side (older ledgers lack them) pass.
GATES = [("ns_per_op", "ns/op", threshold),
         ("allocs_per_op", "allocs/op", alloc_threshold),
         ("bytes_per_op", "B/op", alloc_threshold)]

# fsync-bound benchmarks: their ns/op measures the container's disk
# latency (which swings 2x across container lifetimes), not the code,
# so ns drift is informational there. The alloc/bytes gates still
# apply in full — a leaked buffer in the write path fails the check.
DISK_BOUND = re.compile(r"StorePutCold|StoreEvict")

failed = []
for name in sorted(bnew.keys() & bbase.keys()):
    scaling = re.search(r"-\d+$", name) is not None
    for key, unit, limit in GATES:
        if key not in bnew[name] or key not in bbase[name]:
            continue
        n, b = bnew[name][key], bbase[name][key]
        delta = (n - b) / b * 100 if b else 0.0
        flag = ""
        if delta > limit:
            if scaling:
                flag = "  (scaling row, informational)"
            elif key == "ns_per_op" and DISK_BOUND.search(name):
                flag = "  (disk-bound, informational)"
            else:
                failed.append(f"{name} {unit}")
                flag = "  REGRESSION"
        if key == "ns_per_op" or flag:
            print(f"  {name:<40} {b:>14.0f} -> {n:>14.0f} {unit:<9} {delta:+6.1f}%{flag}")
for name in sorted(bnew.keys() - bbase.keys()):
    print(f"  {name:<40} (new benchmark, no baseline)")
for name in sorted(bbase.keys() - bnew.keys()):
    print(f"  {name:<40} (baseline only, not run)")

if failed:
    print(f"bench_compare: {len(failed)} metric(s) regressed beyond threshold "
          f"vs {os.environ['BASE']}: {', '.join(failed)}")
    sys.exit(1)
print("bench_compare: no regressions beyond threshold (ns/op, allocs/op, B/op)")
EOF
