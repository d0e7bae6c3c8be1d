package storage

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// CacheParams configures the page cache. The defaults (LinuxPageCache)
// follow the 3.2-kernel defaults on the paper's 64 GB node.
type CacheParams struct {
	// MemBW is the copy bandwidth between user buffers and the cache,
	// bytes/s (effective single-stream memcpy, not peak DDR3).
	MemBW float64
	// BackgroundDirty starts the write-back daemon (dirty_background_ratio).
	BackgroundDirty units.Bytes
	// DirtyLimit throttles foreground writers (dirty_ratio).
	DirtyLimit units.Bytes
	// LowWater is where background write-back stops draining.
	LowWater units.Bytes
	// BatchBytes is how much one elevator sweep batch submits at once.
	BatchBytes units.Bytes
	// FIFOWriteback disables the elevator: dirty data drains in
	// insertion order instead of LBA order (ablation knob — random
	// writes become seek-bound).
	FIFOWriteback bool
	// WriteThrough disables write buffering entirely: every Write goes
	// straight to the media and blocks (ablation knob).
	WriteThrough bool
}

// LinuxPageCache returns cache parameters for a 64 GB node:
// background write-back at 10 % of RAM, foreground throttle at 20 %,
// 3 GB/s effective copy bandwidth.
func LinuxPageCache() CacheParams {
	ram := 64 * units.GiB
	return CacheParams{
		MemBW:           3e9,
		BackgroundDirty: ram / 10,
		DirtyLimit:      ram / 5,
		LowWater:        ram / 20,
		BatchBytes:      16 * units.MiB,
	}
}

// CacheStats aggregates cache behaviour for attribution and tests.
type CacheStats struct {
	ReadHits, ReadMisses units.Bytes // bytes served from RAM vs media
	BytesWritten         units.Bytes // bytes buffered by callers
	WritebackBytes       units.Bytes // dirty bytes drained to media
	Throttles            uint64      // foreground writes that hit DirtyLimit
	Syncs                uint64
}

// PageCache is the write-back cache between callers and the disk. It is
// a pure timing model: it tracks which disk-offset ranges are RAM
// resident and which are dirty, charges memcpy time for hits and media
// time for misses, and runs an elevator write-back daemon. File *data*
// lives in the filesystem layer; the cache never stores bytes.
//
// Read, Write, Sync and SyncRanges are foreground (blocking) calls:
// they advance the virtual clock until the operation completes. The
// write-back daemon runs in the background via scheduled events.
type PageCache struct {
	params CacheParams
	engine *sim.Engine
	disk   Device

	cached RangeSet // RAM-resident (clean + dirty)
	dirty  RangeSet // not yet on media
	fifo   []Range  // insertion order, used when FIFOWriteback is set
	gaps   []Range  // Read's scratch: the misses of the current read

	sweepPos units.Bytes // elevator position
	inflight bool        // a write-back batch is on the media

	stats CacheStats
}

// NewPageCache creates a cache over a block device.
func NewPageCache(engine *sim.Engine, disk Device, params CacheParams) *PageCache {
	if params.MemBW <= 0 {
		panic("storage: cache needs positive memory bandwidth")
	}
	if params.DirtyLimit < params.BackgroundDirty {
		panic("storage: DirtyLimit below BackgroundDirty")
	}
	if params.BatchBytes <= 0 {
		panic("storage: cache needs a positive write-back batch size")
	}
	return &PageCache{params: params, engine: engine, disk: disk}
}

// Stats returns a copy of the accumulated statistics.
func (c *PageCache) Stats() CacheStats { return c.stats }

// DirtyBytes returns the current amount of un-flushed data.
func (c *PageCache) DirtyBytes() units.Bytes { return c.dirty.Bytes() }

// CachedBytes returns the current amount of RAM-resident data.
func (c *PageCache) CachedBytes() units.Bytes { return c.cached.Bytes() }

// Write buffers [off, off+n) through the cache: memcpy time now,
// media time later via write-back (or fsync). It blocks (advances the
// clock) for the copy and for dirty-limit throttling.
func (c *PageCache) Write(off, n units.Bytes) {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative write length %d", n))
	}
	if c.params.WriteThrough {
		c.engine.Advance(units.TransferTime(n, c.params.MemBW))
		end := c.disk.Submit(OpWrite, off, n, nil)
		c.engine.AdvanceTo(end)
		c.cached.Add(Range{off, off + n})
		c.stats.BytesWritten += n
		c.stats.WritebackBytes += n
		return
	}
	// Buffer in batch-sized chunks so dirty-limit throttling interleaves
	// with the copy, as the kernel's per-page balance_dirty_pages does.
	for n > 0 {
		take := min64(n, c.params.BatchBytes)
		c.throttle(take)
		c.engine.Advance(units.TransferTime(take, c.params.MemBW))
		r := Range{off, off + take}
		c.cached.Add(r)
		c.dirty.Add(r)
		if c.params.FIFOWriteback {
			c.fifo = append(c.fifo, r)
		}
		c.stats.BytesWritten += take
		c.maybeStartWriteback()
		off += take
		n -= take
	}
}

// throttle blocks the writer while the dirty set exceeds DirtyLimit,
// mirroring balance_dirty_pages.
func (c *PageCache) throttle(incoming units.Bytes) {
	throttled := false
	for c.dirty.Bytes()+incoming > c.params.DirtyLimit {
		throttled = true
		c.startWriteback()
		free := c.disk.FreeAt()
		if free <= c.engine.Now() {
			break // nothing in flight and nothing to drain
		}
		c.engine.AdvanceTo(free)
	}
	if throttled {
		c.stats.Throttles++
	}
}

// Read fetches [off, off+n): RAM-resident portions cost memcpy time,
// the rest is read from media (and becomes resident). Blocks until the
// data is available.
func (c *PageCache) Read(off, n units.Bytes) {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative read length %d", n))
	}
	if n == 0 {
		return
	}
	// One walk finds the misses and makes the whole range resident.
	// The scratch buffer is never live across AdvanceTo: Submit never
	// advances the clock, so no event re-enters Read while the loop
	// walks it, and nothing an event runs reads the cached set.
	c.gaps = c.cached.Fill(Range{off, off + n}, c.gaps[:0])
	var missBytes units.Bytes
	var last sim.Time
	for _, g := range c.gaps {
		missBytes += g.Len()
		last = c.disk.Submit(OpRead, g.Start, g.Len(), nil)
	}
	if last > c.engine.Now() {
		c.engine.AdvanceTo(last)
	}
	hit := n - missBytes
	c.stats.ReadHits += hit
	c.stats.ReadMisses += missBytes
	// Delivering to the caller's buffer costs one pass at memory speed.
	c.engine.Advance(units.TransferTime(n, c.params.MemBW))
}

// Sync drains the entire dirty set to media and blocks until the media
// is quiet — the fsync/sync(2) the proxy app issues per checkpoint and
// between phases.
func (c *PageCache) Sync() {
	c.stats.Syncs++
	for !c.dirty.Empty() || c.inflight {
		c.startWriteback()
		free := c.disk.FreeAt()
		if free <= c.engine.Now() {
			break
		}
		c.engine.AdvanceTo(free)
	}
}

// SyncRanges drains only the given ranges (file-level fsync). Other
// dirty data stays buffered.
func (c *PageCache) SyncRanges(ranges []Range) {
	c.stats.Syncs++
	for {
		var pending units.Bytes
		for _, r := range ranges {
			for _, seg := range c.dirty.Intersect(r) {
				pending += seg.Len()
			}
		}
		if pending == 0 && !c.inflight {
			return
		}
		if pending > 0 && !c.inflight {
			// Drain the requested ranges directly, elevator order.
			var batch []Range
			for _, r := range ranges {
				batch = append(batch, c.dirty.Intersect(r)...)
			}
			c.submitBatch(batch)
		}
		free := c.disk.FreeAt()
		if free <= c.engine.Now() {
			return
		}
		c.engine.AdvanceTo(free)
	}
}

// DropCaches evicts clean pages (echo 1 > drop_caches). Dirty pages
// stay resident, as on Linux; call Sync first to empty the cache fully.
// Dirty pages are always cached, so what stays is exactly the dirty set.
func (c *PageCache) DropCaches() { c.cached = *c.dirty.Clone() }

// Invalidate drops a range from the cache entirely (file deletion).
// Dirty data in the range is discarded without reaching media.
func (c *PageCache) Invalidate(r Range) {
	c.cached.Remove(r)
	c.dirty.Remove(r)
}

// maybeStartWriteback kicks the daemon when dirty exceeds the
// background threshold.
func (c *PageCache) maybeStartWriteback() {
	if c.dirty.Bytes() > c.params.BackgroundDirty {
		c.startWriteback()
	}
}

// startWriteback submits one write-back batch if none is in flight:
// an elevator sweep by default, insertion order under FIFOWriteback.
func (c *PageCache) startWriteback() {
	if c.inflight || c.dirty.Empty() {
		return
	}
	var batch []Range
	if c.params.FIFOWriteback {
		batch = c.takeFIFO(c.params.BatchBytes)
	}
	if len(batch) == 0 {
		// Elevator sweep; also the FIFO fallback when the insertion
		// queue has been consumed but dirty data remains (e.g. after a
		// partial SyncRanges), so Sync always terminates.
		batch = c.dirty.TakeFrom(c.sweepPos, c.params.BatchBytes)
	}
	if len(batch) == 0 {
		return
	}
	c.submitBatchTaken(batch)
}

// takeFIFO pops still-dirty segments from the insertion queue up to
// the budget and removes them from the dirty set.
func (c *PageCache) takeFIFO(budget units.Bytes) []Range {
	var batch []Range
	for budget > 0 && len(c.fifo) > 0 {
		head := c.fifo[0]
		c.fifo = c.fifo[1:]
		segs := c.dirty.Intersect(head)
		for i, seg := range segs {
			if seg.Len() > budget {
				// Split: keep the remainder at the queue head.
				rest := Range{seg.Start + budget, seg.End}
				seg = Range{seg.Start, seg.Start + budget}
				c.fifo = append([]Range{rest}, c.fifo...)
			}
			c.dirty.Remove(seg)
			batch = append(batch, seg)
			budget -= seg.Len()
			if budget <= 0 {
				// Re-queue any untouched sibling segments.
				if i+1 < len(segs) {
					c.fifo = append(append([]Range(nil), segs[i+1:]...), c.fifo...)
				}
				break
			}
		}
	}
	return batch
}

// submitBatch removes the given ranges from the dirty set and writes
// them out.
func (c *PageCache) submitBatch(batch []Range) {
	for _, r := range batch {
		c.dirty.Remove(r)
	}
	c.submitBatchTaken(batch)
}

// submitBatchTaken writes ranges (already removed from dirty) to media
// in ascending offset order and arms the completion callback.
func (c *PageCache) submitBatchTaken(batch []Range) {
	c.inflight = true
	var end sim.Time
	for _, r := range batch {
		c.stats.WritebackBytes += r.Len()
		end = c.disk.Submit(OpWrite, r.Start, r.Len(), nil)
		c.sweepPos = r.End
	}
	c.engine.At(end, func() {
		c.inflight = false
		// Keep draining while above the low-water mark.
		if c.dirty.Bytes() > c.params.LowWater {
			c.startWriteback()
		}
	})
}
