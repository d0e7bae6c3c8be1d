package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// opKind enumerates the cache operations the fuzz harness exercises.
type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opSync
	opDrop
	opInvalidate
	opAdvance
	opKindCount
)

// cacheInvariants checks the structural invariants after every step.
func cacheInvariants(t *testing.T, c *PageCache) bool {
	t.Helper()
	// Clean and dirty never overlap.
	for _, d := range c.dirty.Ranges() {
		if gaps := c.clean.Gaps(d, nil); len(gaps) != 1 || gaps[0] != d {
			t.Logf("dirty range %v is partly clean: clean lacks only %v of it", d, gaps)
			return false
		}
	}
	return true
}

// TestCacheInvariantsUnderRandomOps drives the full cache state machine
// with arbitrary operation sequences and checks invariants after every
// operation, plus terminal guarantees after a final Sync.
func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		e := sim.NewEngine()
		p := SeagateHDD()
		p.DeterministicRotation = true
		d := NewDisk(e, p, nil, xrand.New(seed))
		c := NewPageCache(e, d, smallCacheParams())
		rng := xrand.New(seed + 1)

		const span = 256 * units.MiB
		for _, raw := range ops {
			kind := opKind(raw) % opKindCount
			off := units.Bytes(rng.Int64n(int64(span)))
			n := units.Bytes(rng.Int64n(int64(4*units.MiB))) + 1
			switch kind {
			case opWrite:
				c.Write(off, n)
			case opRead:
				c.Read(off, n)
			case opSync:
				c.Sync()
			case opDrop:
				c.DropCaches()
			case opInvalidate:
				c.Invalidate(Range{off, off + n})
			case opAdvance:
				e.Advance(units.Seconds(rng.Float64()) * 2)
			}
			if !cacheInvariants(t, c) {
				return false
			}
		}
		// Terminal: a full sync leaves nothing dirty and the media quiet.
		c.Sync()
		if c.DirtyBytes() != 0 {
			t.Logf("dirty after final sync: %v", c.DirtyBytes())
			return false
		}
		e.Advance(60)
		return d.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCacheDeterministicUnderRandomOps replays the same op sequence on
// two caches and expects identical timing and media traffic.
func TestCacheDeterministicUnderRandomOps(t *testing.T) {
	run := func() (units.Seconds, units.Bytes) {
		e := sim.NewEngine()
		p := SeagateHDD()
		d := NewDisk(e, p, nil, xrand.New(77))
		c := NewPageCache(e, d, smallCacheParams())
		rng := xrand.New(78)
		for i := 0; i < 300; i++ {
			off := units.Bytes(rng.Int64n(int64(128 * units.MiB)))
			n := units.Bytes(rng.Int64n(int64(units.MiB))) + 1
			switch rng.Intn(3) {
			case 0:
				c.Write(off, n)
			case 1:
				c.Read(off, n)
			case 2:
				c.Sync()
			}
		}
		c.Sync()
		return e.Now(), d.Stats().BytesWritten + d.Stats().BytesRead
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Errorf("replay diverged: %v/%v vs %v/%v", t1, b1, t2, b2)
	}
}

// TestFIFOCacheInvariants runs the same fuzz under the FIFO-writeback
// ablation configuration.
func TestFIFOCacheInvariants(t *testing.T) {
	e := sim.NewEngine()
	p := SeagateHDD()
	p.DeterministicRotation = true
	d := NewDisk(e, p, nil, xrand.New(3))
	params := smallCacheParams()
	params.FIFOWriteback = true
	c := NewPageCache(e, d, params)
	rng := xrand.New(4)
	for i := 0; i < 400; i++ {
		off := units.Bytes(rng.Int64n(int64(64 * units.MiB)))
		n := units.Bytes(rng.Int64n(int64(512*units.KiB))) + 1
		switch rng.Intn(4) {
		case 0, 1:
			c.Write(off, n)
		case 2:
			c.Read(off, n)
		case 3:
			c.Sync()
		}
		if !cacheInvariants(t, c) {
			t.Fatalf("invariant broken at op %d", i)
		}
	}
	c.Sync()
	if c.DirtyBytes() != 0 {
		t.Error("FIFO cache left dirty data after sync")
	}
}
