package storage

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// testCache builds an engine + deterministic disk + cache with small
// thresholds so tests can exercise write-back without gigabytes.
func testCache(t *testing.T, params CacheParams) (*sim.Engine, *Disk, *PageCache) {
	t.Helper()
	e := sim.NewEngine()
	p := SeagateHDD()
	p.DeterministicRotation = true
	d := NewDisk(e, p, nil, xrand.New(1))
	return e, d, NewPageCache(e, d, params)
}

func smallCacheParams() CacheParams {
	return CacheParams{
		BackgroundDirty: 8 * units.MiB,
		DirtyLimit:      16 * units.MiB,
		LowWater:        2 * units.MiB,
		BatchBytes:      4 * units.MiB,
	}
}

func TestWriteBuffersAtMemorySpeed(t *testing.T) {
	e, d, c := testCache(t, smallCacheParams())
	start := e.Now()
	c.Write(0, 3*units.MiB)
	elapsed := float64(e.Now() - start)
	want := float64(3*units.MiB) / 3e9
	if math.Abs(elapsed-want) > 1e-9 {
		t.Errorf("buffered write took %v, want %v (memcpy only)", elapsed, want)
	}
	if d.Stats().Writes != 0 {
		t.Error("buffered write below background threshold hit the media")
	}
	if c.DirtyBytes() != 3*units.MiB {
		t.Errorf("DirtyBytes = %v, want 3 MiB", c.DirtyBytes())
	}
}

func TestBackgroundWritebackKicksIn(t *testing.T) {
	e, d, c := testCache(t, smallCacheParams())
	c.Write(0, 10*units.MiB) // above BackgroundDirty=8 MiB
	// Let the daemon run.
	e.Advance(10)
	if d.Stats().BytesWritten == 0 {
		t.Fatal("background write-back never touched the media")
	}
	if c.DirtyBytes() > 2*units.MiB {
		t.Errorf("dirty after background drain = %v, want <= LowWater", c.DirtyBytes())
	}
}

func TestSyncDrainsEverything(t *testing.T) {
	e, d, c := testCache(t, smallCacheParams())
	c.Write(0, 5*units.MiB)
	c.Sync()
	if c.DirtyBytes() != 0 {
		t.Errorf("dirty after Sync = %v, want 0", c.DirtyBytes())
	}
	if d.Stats().BytesWritten != 5*units.MiB {
		t.Errorf("media writes = %v, want 5 MiB", d.Stats().BytesWritten)
	}
	if !d.Idle() {
		t.Error("disk still busy after Sync returned")
	}
	_ = e
}

func TestSyncIsBandwidthBoundForSequentialData(t *testing.T) {
	e, d, c := testCache(t, smallCacheParams())
	c.Write(0, 32*units.MiB)
	// Drain whatever background started plus the rest.
	start := e.Now()
	c.Sync()
	elapsed := float64(e.Now() - start)
	// All 32 MiB (modulo what background already drained) at write BW.
	maxWant := float64(32*units.MiB)/d.Params().SeqWriteBW + 0.05
	if elapsed > maxWant {
		t.Errorf("Sync of sequential data took %v, want <= %v", elapsed, maxWant)
	}
}

func TestReadMissGoesToMedia(t *testing.T) {
	e, d, c := testCache(t, smallCacheParams())
	start := e.Now()
	c.Read(units.GiB, units.MiB)
	if d.Stats().Reads == 0 {
		t.Fatal("cold read did not hit the media")
	}
	elapsed := float64(e.Now() - start)
	xfer := float64(units.MiB) / d.Params().SeqReadBW
	if elapsed <= xfer {
		t.Errorf("cold read took %v, expected positioning on top of %v", elapsed, xfer)
	}
	st := c.Stats()
	if st.ReadMisses != units.MiB || st.ReadHits != 0 {
		t.Errorf("hits/misses = %v/%v, want 0/1MiB", st.ReadHits, st.ReadMisses)
	}
}

func TestReadHitIsMemorySpeed(t *testing.T) {
	e, _, c := testCache(t, smallCacheParams())
	c.Read(units.GiB, units.MiB) // populate
	start := e.Now()
	c.Read(units.GiB, units.MiB) // hit
	elapsed := float64(e.Now() - start)
	want := float64(units.MiB) / 3e9
	if math.Abs(elapsed-want) > 1e-9 {
		t.Errorf("warm read took %v, want %v", elapsed, want)
	}
	if got := c.Stats().ReadHits; got != units.MiB {
		t.Errorf("ReadHits = %v, want 1 MiB", got)
	}
}

func TestReadOfDirtyDataIsServedFromRAM(t *testing.T) {
	_, d, c := testCache(t, smallCacheParams())
	c.Write(units.GiB, units.MiB)
	reads := d.Stats().Reads
	c.Read(units.GiB, units.MiB)
	if d.Stats().Reads != reads {
		t.Error("read of dirty data hit the media")
	}
}

func TestPartialHitReadsOnlyGaps(t *testing.T) {
	_, d, c := testCache(t, smallCacheParams())
	c.Read(units.GiB, units.MiB) // cache the first MiB
	c.Read(units.GiB, 2*units.MiB)
	if got := d.Stats().BytesRead; got != 2*units.MiB {
		t.Errorf("media bytes read = %v, want 2 MiB (1 cold + 1 gap)", got)
	}
}

func TestDropCachesEvictsCleanKeepsDirty(t *testing.T) {
	_, _, c := testCache(t, smallCacheParams())
	c.Read(units.GiB, units.MiB) // clean
	c.Write(0, units.MiB)        // dirty
	c.DropCaches()
	if c.CachedBytes() != units.MiB {
		t.Errorf("cached after drop = %v, want 1 MiB (dirty only)", c.CachedBytes())
	}
	if c.DirtyBytes() != units.MiB {
		t.Errorf("dirty after drop = %v, want 1 MiB", c.DirtyBytes())
	}
}

func TestDropCachesMakesReadsColdAgain(t *testing.T) {
	_, d, c := testCache(t, smallCacheParams())
	c.Read(units.GiB, units.MiB)
	c.DropCaches()
	before := d.Stats().BytesRead
	c.Read(units.GiB, units.MiB)
	if got := d.Stats().BytesRead - before; got != units.MiB {
		t.Errorf("re-read after drop hit media for %v, want 1 MiB", got)
	}
}

func TestDirtyLimitThrottles(t *testing.T) {
	e, _, c := testCache(t, smallCacheParams())
	// Write 3x the dirty limit in one call: the writer must block while
	// the media drains.
	c.Write(0, 48*units.MiB)
	if c.Stats().Throttles == 0 {
		t.Error("write far above DirtyLimit did not throttle")
	}
	elapsed := float64(e.Now())
	memOnly := float64(48*units.MiB) / 3e9
	if elapsed <= memOnly*2 {
		t.Errorf("throttled write took %v, barely more than memcpy %v", elapsed, memOnly)
	}
}

func TestSyncRangeOnlyDrainsRequested(t *testing.T) {
	_, d, c := testCache(t, smallCacheParams())
	c.Write(0, units.MiB)
	c.Write(units.GiB, units.MiB)
	c.SyncRange(Range{0, units.MiB})
	if c.DirtyBytes() != units.MiB {
		t.Errorf("dirty after range sync = %v, want 1 MiB left", c.DirtyBytes())
	}
	if d.Stats().BytesWritten != units.MiB {
		t.Errorf("media writes = %v, want 1 MiB", d.Stats().BytesWritten)
	}
}

func TestInvalidateDiscardsDirty(t *testing.T) {
	_, d, c := testCache(t, smallCacheParams())
	c.Write(0, units.MiB)
	c.Invalidate(Range{0, units.MiB})
	c.Sync()
	if d.Stats().BytesWritten != 0 {
		t.Error("invalidated dirty data still reached media")
	}
}

func TestOverwriteDirtyDoesNotGrowDirty(t *testing.T) {
	_, _, c := testCache(t, smallCacheParams())
	c.Write(0, units.MiB)
	c.Write(0, units.MiB)
	if c.DirtyBytes() != units.MiB {
		t.Errorf("dirty after overwrite = %v, want 1 MiB", c.DirtyBytes())
	}
}

func TestZeroLengthOpsAreNoops(t *testing.T) {
	e, d, c := testCache(t, smallCacheParams())
	before := e.Now()
	c.Write(0, 0)
	c.Read(0, 0)
	if e.Now() != before || d.Stats().Reads+d.Stats().Writes != 0 {
		t.Error("zero-length ops had effects")
	}
}

func TestCacheParamValidation(t *testing.T) {
	e := sim.NewEngine()
	p := SeagateHDD()
	p.DeterministicRotation = true
	d := NewDisk(e, p, nil, xrand.New(1))
	bad := smallCacheParams()
	bad.DirtyLimit = bad.BackgroundDirty - 1
	defer func() {
		if recover() == nil {
			t.Error("DirtyLimit < BackgroundDirty did not panic")
		}
	}()
	NewPageCache(e, d, bad)
}

// Write-back conservation: every dirty byte either reaches the media or
// is invalidated; after Sync, media writes == total buffered writes for
// non-overlapping writes.
func TestWritebackConservation(t *testing.T) {
	_, d, c := testCache(t, smallCacheParams())
	rng := xrand.New(42)
	var total units.Bytes
	for i := 0; i < 50; i++ {
		off := units.Bytes(i) * 10 * units.MiB
		n := units.Bytes(rng.Int64n(int64(units.MiB))) + 4*units.KiB
		c.Write(off, n)
		total += n
	}
	c.Sync()
	if got := d.Stats().BytesWritten; got != total {
		t.Errorf("media bytes written = %v, want %v", got, total)
	}
	if c.DirtyBytes() != 0 {
		t.Errorf("dirty after sync = %v", c.DirtyBytes())
	}
}

// TestWriteBackAllocations pins the write-back path's allocations: a
// warm Write of one 4 MiB extent followed by SyncRange of it, or by
// Sync, allocates nothing. The Write empties the clean set and the sync
// the dirty one, and each set keeps its emptied chunk for its next
// edit; the batch buffer and its completion are the cache's own.
func TestWriteBackAllocations(t *testing.T) {
	r := Range{0, 4 * units.MiB}
	for _, tc := range []struct {
		name string
		sync func(c *PageCache)
	}{
		{"SyncRange", func(c *PageCache) { c.SyncRange(r) }},
		{"Sync", (*PageCache).Sync},
	} {
		_, d, c := testCache(t, smallCacheParams())
		if n := testing.AllocsPerRun(100, func() {
			c.Write(r.Start, r.Len())
			tc.sync(c)
		}); n != 0 {
			t.Errorf("Write then %s: %v allocs/op, want 0", tc.name, n)
		}
		if c.DirtyBytes() != 0 || c.inflight || d.Stats().BytesWritten != 101*r.Len() {
			t.Errorf("after %s: %d dirty bytes, batch in flight %v, %d bytes on media; want 0, false, %d",
				tc.name, c.DirtyBytes(), c.inflight, d.Stats().BytesWritten, 101*r.Len())
		}
	}
}

// TestFIFOCutEntryStaysAtHead: under FIFOWriteback, a batch the budget
// cuts short inside a queue entry leaves the entry's unsent part at the
// queue head, so the next batch sends its dirty pieces in offset order
// before any later entry.
func TestFIFOCutEntryStaysAtHead(t *testing.T) {
	const mib, half = units.MiB, units.MiB / 2
	p := smallCacheParams()
	p.FIFOWriteback = true
	e, _, c := testCache(t, p)
	c.Write(8*mib, 2*mib) // the oldest entry
	c.Write(0, 4*mib)     // one entry of BatchBytes, holes cut below
	c.Write(20*mib, mib)  // a later entry
	c.Invalidate(Range{mib, mib + half})
	c.Invalidate(Range{3 * mib, 3*mib + half})
	// The 4 MiB budget takes the oldest entry whole and cuts the second
	// inside its middle piece [1.5, 3) MiB.
	c.startWriteback()
	if want := []Range{{8 * mib, 10 * mib}, {0, mib}, {mib + half, 2*mib + half}}; !equalRanges(c.batch, want) {
		t.Fatalf("first batch = %v, want %v", c.batch, want)
	}
	if want := []Range{{2*mib + half, 4 * mib}, {20 * mib, 21 * mib}}; !equalRanges(c.fifo, want) {
		t.Fatalf("queue after the cut = %v, want %v", c.fifo, want)
	}
	e.Advance(10)
	c.startWriteback()
	if want := []Range{{2*mib + half, 3 * mib}, {3*mib + half, 4 * mib}, {20 * mib, 21 * mib}}; !equalRanges(c.batch, want) {
		t.Errorf("second batch = %v, want %v", c.batch, want)
	}
}
