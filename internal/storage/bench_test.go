package storage

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// BenchmarkCacheRandom is the page-cache row of the perf ledger at the
// perfbench fio workload's 256 MiB (scripts/bench.sh runs it at -cpu 1):
// a PageCache over a disk buffers 16,384 16 KiB writes in random order
// and fsyncs the span, then drops its clean pages and serves 16,384
// random 16 KiB reads, each a miss. Its dirty and then its clean set
// grow to thousands of ranges in dozens of chunks, where the 64 MiB
// fio rows hold about a thousand ranges. The seeded set-up is untimed,
// and every iteration replays the same requests.
func BenchmarkCacheRandom(b *testing.B) {
	const block, span = 16 * units.KiB, 256 * units.MiB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := xrand.New(1)
		writes, reads := rng.Perm(int(span/block)), rng.Perm(int(span/block))
		e := sim.NewEngine()
		c := NewPageCache(e, NewDisk(e, SeagateHDD(), nil, rng), LinuxPageCache())
		b.StartTimer()
		for _, k := range writes {
			c.Write(units.Bytes(k)*block, block)
		}
		c.SyncRange(Range{0, span})
		c.DropCaches()
		for _, k := range reads {
			c.Read(units.Bytes(k)*block, block)
		}
	}
}
