package fio

import (
	"testing"

	"repro/internal/node"
	"repro/internal/units"
)

// BenchmarkRandWrite is the storage-layer row of the perf ledger (run
// by scripts/bench.sh at -cpu 1): one random-write test at 64 MiB, the
// fio size of the suite benchmarks, on a fresh node. 4096 16 KiB
// writes land in random order, so the page cache's cached and dirty
// range sets grow to thousands of ranges and drain by elevator sweeps;
// the host time is almost all range bookkeeping.
func BenchmarkRandWrite(b *testing.B) {
	cfg := DefaultConfig()
	cfg.FileSize = 64 * units.MiB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := node.New(node.SandyBridge(), uint64(i)+1)
		b.StartTimer()
		Run(n, RandWrite, cfg)
	}
}
