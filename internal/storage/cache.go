package storage

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// CacheParams configures the page cache. The defaults (LinuxPageCache)
// follow the 3.2-kernel defaults on the paper's 64 GB node.
type CacheParams struct {
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

// memBW is the copy bandwidth between user buffers and the cache,
// bytes/s (effective single-stream memcpy, not peak DDR3).
const memBW = 3e9

// LinuxPageCache returns cache parameters for a 64 GB node:
// background write-back at 10 % of RAM, foreground throttle at 20 %.
func LinuxPageCache() CacheParams {
	ram := 64 * units.GiB
	return CacheParams{
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
// resident as two sets that never overlap, the clean ranges (on media
// too) and the dirty ones (not yet), charges memcpy time for hits and
// media time for misses, and runs an elevator write-back daemon. File
// *data* lives in the filesystem layer; the cache never stores bytes.
//
// Read, Write, Sync and SyncRange are foreground (blocking) calls:
// they advance the virtual clock until the operation completes. The
// write-back daemon runs in the background via scheduled events. Every
// write-back batch, elevator, FIFO or fsync, is taken from the dirty
// set with RangeSet.Take into one reused buffer, and joins the clean set
// as it is submitted.
type PageCache struct {
	params CacheParams
	engine *sim.Engine
	disk   Device

	clean  RangeSet // RAM-resident and on media; never overlaps dirty
	dirty  RangeSet // RAM-resident, not yet on media
	fifo   []Range  // insertion order, used when FIFOWriteback is set
	holes  []Range  // Read's scratch: what the dirty set lacks of the read
	misses []Range  // Read's scratch: what the clean set lacks of holes
	batch  []Range  // the write-back batch being submitted, reused

	sweepPos  units.Bytes // elevator position
	inflight  bool        // a write-back batch is on the media
	batchDone func()      // the batch completion, built once

	stats CacheStats
}

// NewPageCache creates a cache over a block device.
func NewPageCache(engine *sim.Engine, disk Device, params CacheParams) *PageCache {
	if params.DirtyLimit < params.BackgroundDirty {
		panic("storage: DirtyLimit below BackgroundDirty")
	}
	if params.BatchBytes <= 0 {
		panic("storage: cache needs a positive write-back batch size")
	}
	c := &PageCache{params: params, engine: engine, disk: disk}
	c.batchDone = func() {
		c.inflight = false
		// Keep draining while above the low-water mark.
		if c.dirty.Bytes() > c.params.LowWater {
			c.startWriteback()
		}
	}
	return c
}

// Stats returns a copy of the accumulated statistics.
func (c *PageCache) Stats() CacheStats { return c.stats }

// DirtyBytes returns the current amount of un-flushed data.
func (c *PageCache) DirtyBytes() units.Bytes { return c.dirty.Bytes() }

// CachedBytes returns the current amount of RAM-resident data.
func (c *PageCache) CachedBytes() units.Bytes { return c.clean.Bytes() + c.dirty.Bytes() }

// Write buffers [off, off+n) through the cache: memcpy time now,
// media time later via write-back (or fsync). It blocks (advances the
// clock) for the copy and for dirty-limit throttling.
func (c *PageCache) Write(off, n units.Bytes) {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative write length %d", n))
	}
	if c.params.WriteThrough {
		c.engine.Advance(units.TransferTime(n, memBW))
		end := c.disk.Submit(OpWrite, off, n, nil)
		c.engine.AdvanceTo(end)
		c.clean.Add(Range{off, off + n})
		c.stats.BytesWritten += n
		c.stats.WritebackBytes += n
		return
	}
	// Buffer in batch-sized chunks so dirty-limit throttling interleaves
	// with the copy, as the kernel's per-page balance_dirty_pages does.
	for n > 0 {
		take := min64(n, c.params.BatchBytes)
		c.throttle(take)
		c.engine.Advance(units.TransferTime(take, memBW))
		r := Range{off, off + take}
		c.clean.Remove(r)
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
	c.engine.AdvanceWhile(func() sim.Time {
		if c.dirty.Bytes()+incoming <= c.params.DirtyLimit {
			return 0
		}
		throttled = true
		c.startWriteback()
		return c.disk.FreeAt() // an idle disk: nothing in flight to drain
	})
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
	// The misses are what neither set holds: the dirty set's holes in
	// the range, less the clean set, which each hole's Fill makes
	// resident in the same walk. The scratch buffers are never live
	// across AdvanceTo: Submit never advances the clock, so no event
	// re-enters Read or submits a write-back batch (which moves ranges
	// from the dirty set to the clean one) while the loops run.
	c.holes = c.dirty.Gaps(Range{off, off + n}, c.holes[:0])
	c.misses = c.misses[:0]
	for _, h := range c.holes {
		c.misses = c.clean.Fill(h, c.misses)
	}
	var missBytes units.Bytes
	var last sim.Time
	for _, g := range c.misses {
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
	c.engine.Advance(units.TransferTime(n, memBW))
}

// Sync drains the entire dirty set to media and blocks until the media
// is quiet — the fsync/sync(2) the proxy app issues per checkpoint and
// between phases.
func (c *PageCache) Sync() {
	c.stats.Syncs++
	c.engine.AdvanceWhile(func() sim.Time {
		if c.dirty.Empty() && !c.inflight {
			return 0
		}
		c.startWriteback()
		return c.disk.FreeAt()
	})
}

// SyncRange drains only the dirty data in r (file-level fsync), in
// one batch once no other is in flight, and returns with no batch in
// flight. Other dirty data stays buffered.
func (c *PageCache) SyncRange(r Range) {
	c.stats.Syncs++
	c.engine.AdvanceWhile(func() sim.Time {
		if !c.inflight {
			if c.batch = c.dirty.Take(r, r.Len(), c.batch[:0]); len(c.batch) == 0 {
				return 0
			}
			c.submit()
		}
		return c.disk.FreeAt()
	})
}

// DropCaches evicts clean pages (echo 1 > drop_caches). Dirty pages
// stay resident, as on Linux; call Sync first to empty the cache fully.
func (c *PageCache) DropCaches() { c.clean = RangeSet{} }

// Invalidate drops a range from the cache entirely (file deletion).
// Dirty data in the range is discarded without reaching media.
func (c *PageCache) Invalidate(r Range) {
	c.clean.Remove(r)
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
	c.batch = c.batch[:0]
	if c.params.FIFOWriteback {
		c.takeFIFO()
	}
	if len(c.batch) == 0 {
		// Elevator sweep; also the FIFO fallback when the insertion
		// queue has been consumed but dirty data remains (e.g. after a
		// partial SyncRange), so Sync always terminates.
		c.batch = c.dirty.TakeFrom(c.sweepPos, c.params.BatchBytes, c.batch)
	}
	if len(c.batch) > 0 {
		c.submit()
	}
}

// takeFIFO takes what is still dirty of the insertion queue's entries
// into the batch, oldest first, up to the batch budget. An entry the
// budget cuts short stays at the queue head with what is left of it.
func (c *PageCache) takeFIFO() {
	budget := c.params.BatchBytes
	for budget > 0 && len(c.fifo) > 0 {
		before := c.dirty.Bytes()
		c.batch = c.dirty.Take(c.fifo[0], budget, c.batch)
		if budget -= before - c.dirty.Bytes(); budget <= 0 {
			c.fifo[0].Start = c.batch[len(c.batch)-1].End
			if !c.fifo[0].Empty() {
				break
			}
		}
		c.fifo = c.fifo[1:]
	}
}

// submit writes the batch (already taken from the dirty set) to media
// in its order, moves it to the clean set and arms the completion.
func (c *PageCache) submit() {
	c.inflight = true
	var end sim.Time
	for _, r := range c.batch {
		c.clean.Add(r)
		c.stats.WritebackBytes += r.Len()
		end = c.disk.Submit(OpWrite, r.Start, r.Len(), nil)
		c.sweepPos = r.End
	}
	c.engine.At(end, c.batchDone)
}
