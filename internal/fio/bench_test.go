package fio

import (
	"testing"

	"repro/internal/node"
	"repro/internal/units"
)

// benchmarkTest runs one fio test of the kind at 64 MiB, the fio size
// of the suite benchmarks, on a fresh node whose build is untimed.
func benchmarkTest(b *testing.B, kind TestKind) {
	cfg := DefaultConfig()
	cfg.FileSize = 64 * units.MiB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := node.New(node.SandyBridge(), uint64(i)+1)
		b.StartTimer()
		Run(n, kind, cfg)
	}
}

// BenchmarkRandWrite is a storage-layer row of the perf ledger (run by
// scripts/bench.sh at -cpu 1): 4096 16 KiB writes land in random order,
// so the page cache's cached and dirty range sets grow to thousands of
// ranges and drain by elevator sweeps; the host time is almost all
// range bookkeeping.
func BenchmarkRandWrite(b *testing.B) { benchmarkTest(b, RandWrite) }

// BenchmarkRandRead is the other storage-layer row: 4096 cold 16 KiB
// reads in random order, each a cache miss that walks the cached range
// set once and sends one seeking request through the disk model and
// the event kernel. Random reads are most of the perfbench fio suite's
// host time.
func BenchmarkRandRead(b *testing.B) { benchmarkTest(b, RandRead) }
