package storage

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// FuzzRangeSet decodes an operation sequence and runs it on the chunked
// set and the flat reference: after every step they must hold the same
// ranges, and every Fill, Take and TakeFrom must answer alike. Each
// operation is six bytes: the kind (Add, Remove, Fill, Take, TakeFrom)
// plus five times a length shift, a 16-bit start (TakeFrom's sweep
// position), a length and a 16-bit budget. An Add reads its budget as
// a gap and a count instead: it adds 1+count copies of its range, each
// the gap plus one byte after the previous, so a few operations fill
// several chunks. Only the first 64 operations run, which bounds the
// cost of one input.
func FuzzRangeSet(f *testing.F) {
	op := func(kind, shift byte, start uint16, n byte, budget uint16) []byte {
		return []byte{kind + 5*shift, byte(start >> 8), byte(start), n, byte(budget >> 8), byte(budget)}
	}
	f.Add([]byte{})
	// A range straddles the sweep position: it is taken whole and last.
	f.Add(slices.Concat(op(0, 0, 100, 50, 0), op(0, 0, 300, 20, 0), op(0, 0, 10, 20, 0), op(4, 0, 120, 0, 200)))
	// Budgets cut a Take and a sweep short; a Fill bridges what is left.
	f.Add(slices.Concat(op(0, 3, 0, 255, 0), op(1, 0, 500, 100, 0), op(3, 2, 200, 255, 700),
		op(4, 0, 1500, 0, 90), op(2, 4, 0, 255, 0)))
	// 512 ranges in several chunks, then a sweep and a Take across
	// chunk edges.
	f.Add(slices.Concat(op(0, 0, 0, 10, 89<<8|255), op(0, 0, 30000, 10, 89<<8|255),
		op(4, 0, 20005, 0, 3000), op(3, 7, 5000, 255, 1500)))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, ref := &RangeSet{}, &flatSet{}
		var buf []Range
		for step := 1; step <= 64 && len(b) >= 6; step, b = step+1, b[6:] {
			start := units.Bytes(b[1])<<8 | units.Bytes(b[2])
			r := Range{start, start + units.Bytes(b[3])<<(b[0]/5%8)}
			budget := units.Bytes(b[4])<<8 | units.Bytes(b[5])
			var want []Range
			switch b[0] % 5 {
			case 0:
				for k := range units.Bytes(b[5]) + 1 {
					shift := k * (r.Len() + units.Bytes(b[4]) + 1)
					s.Add(Range{r.Start + shift, r.End + shift})
					ref.Add(Range{r.Start + shift, r.End + shift})
				}
			case 1:
				s.Remove(r)
				ref.Remove(r)
			case 2:
				want = ref.Gaps(r)
				ref.Add(r)
				buf = s.Fill(r, buf[:0])
			case 3:
				want = ref.Take(r, budget)
				buf = s.Take(r, budget, buf[:0])
			case 4:
				want = ref.TakeFrom(r.Start, budget)
				buf = s.TakeFrom(r.Start, budget, buf[:0])
			}
			if b[0]%5 >= 2 && !equalRanges(buf, want) {
				t.Fatalf("step %d: op %d on %v, budget %d: got %v, reference %v", step, b[0]%5, r, budget, buf, want)
			}
			checkAgainstFlat(t, step, s, ref)
		}
	})
}

// FuzzPageCache decodes a sequence of cache operations and runs it on a
// page cache over a recordingDevice, beside a flat reference of what is
// resident kept by the rules of a single cached set: Write and Read add
// their range to it, Invalidate removes its range, and DropCaches
// leaves exactly the dirty ranges. After every operation the cache's
// clean and dirty sets must not overlap and must together hold the
// reference's ranges, CachedBytes must be the reference's byte total,
// and every read must miss exactly the reference's gaps, in the
// ReadMisses stat and in the reads the cache submits. The first byte
// picks elevator or FIFO write-back; each operation is five bytes: the
// kind (Write, Read, Sync, SyncRange, DropCaches, Invalidate, Advance)
// plus seven times a length shift, a 16-bit start, a length and a
// count. A Write or Read runs 1+count%16 times, each range twice its
// length plus one byte after the previous, so the sets grow to several
// chunks. Only the first 64 operations run.
func FuzzPageCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		e := sim.NewEngine()
		dev := &recordingDevice{e: e}
		params := CacheParams{
			MemBW:           3e9,
			BackgroundDirty: 16 * units.KiB,
			DirtyLimit:      32 * units.KiB,
			LowWater:        4 * units.KiB,
			BatchBytes:      8 * units.KiB,
			FIFOWriteback:   b[0]%2 == 1,
		}
		c := NewPageCache(e, dev, params)
		ref := &flatSet{}
		b = b[1:]
		for step := 1; step <= 64 && len(b) >= 5; step, b = step+1, b[5:] {
			start := units.Bytes(b[1])<<8 | units.Bytes(b[2])
			r := Range{start, start + units.Bytes(b[3])<<(b[0]/7%8)}
			stride := 2*r.Len() + 1
			switch b[0] % 7 {
			case 0:
				for k := range units.Bytes(b[4]%16) + 1 {
					w := Range{r.Start + k*stride, r.End + k*stride}
					c.Write(w.Start, w.Len())
					ref.Add(w)
				}
			case 1:
				for k := range units.Bytes(b[4]%16) + 1 {
					rd := Range{r.Start + k*stride, r.End + k*stride}
					want := ref.Gaps(rd)
					ref.Add(rd)
					var wantBytes units.Bytes
					for _, g := range want {
						wantBytes += g.Len()
					}
					dev.reads = dev.reads[:0]
					before := c.Stats().ReadMisses
					c.Read(rd.Start, rd.Len())
					if got := c.Stats().ReadMisses - before; got != wantBytes {
						t.Fatalf("step %d: read %v missed %d bytes, reference %d", step, rd, got, wantBytes)
					}
					if !equalRanges(dev.reads, want) {
						t.Fatalf("step %d: read %v submitted %v, reference gaps %v", step, rd, dev.reads, want)
					}
				}
			case 2:
				c.Sync()
			case 3:
				c.SyncRange(r)
			case 4:
				c.DropCaches()
				ref = &flatSet{ranges: c.dirty.Ranges()}
			case 5:
				c.Invalidate(r)
				ref.Remove(r)
			case 6:
				e.Advance(units.Seconds(b[3]) * units.Millisecond)
			}
			if !cacheInvariants(t, c) {
				t.Fatalf("step %d: op %d on %v: clean and dirty overlap", step, b[0]%7, r)
			}
			resident := &flatSet{ranges: c.dirty.Ranges()}
			for _, cr := range c.clean.Ranges() {
				resident.Add(cr)
			}
			if !equalRanges(resident.ranges, ref.ranges) || c.CachedBytes() != ref.Bytes() {
				t.Fatalf("step %d: op %d on %v: resident %v (%d bytes cached), reference %v (%d bytes)",
					step, b[0]%7, r, resident.ranges, c.CachedBytes(), ref.ranges, ref.Bytes())
			}
		}
	})
}
