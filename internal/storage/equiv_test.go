package storage

import (
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// flatSet is the range set as it was before the chunked layout: one
// sorted slice edited in place, with Bytes summed on demand. The
// chunked RangeSet must agree with it after every operation.
type flatSet struct {
	ranges []Range
}

func (s *flatSet) Bytes() units.Bytes {
	var n units.Bytes
	for _, r := range s.ranges {
		n += r.Len()
	}
	return n
}

func (s *flatSet) firstAtOrAfter(off units.Bytes) int {
	return sort.Search(len(s.ranges), func(i int) bool {
		return s.ranges[i].End > off
	})
}

func (s *flatSet) Add(r Range) {
	if r.Empty() {
		return
	}
	i := sort.Search(len(s.ranges), func(i int) bool {
		return s.ranges[i].End >= r.Start
	})
	j := i
	for j < len(s.ranges) && s.ranges[j].Start <= r.End {
		if s.ranges[j].Start < r.Start {
			r.Start = s.ranges[j].Start
		}
		if s.ranges[j].End > r.End {
			r.End = s.ranges[j].End
		}
		j++
	}
	if i == j {
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = r
		return
	}
	s.ranges[i] = r
	s.ranges = append(s.ranges[:i+1], s.ranges[j:]...)
}

func (s *flatSet) Remove(r Range) {
	if r.Empty() {
		return
	}
	i := s.firstAtOrAfter(r.Start)
	j := i
	for j < len(s.ranges) && s.ranges[j].Start < r.End {
		j++
	}
	if i == j {
		return
	}
	left := Range{s.ranges[i].Start, r.Start}
	right := Range{r.End, s.ranges[j-1].End}
	frags := 0
	if !left.Empty() {
		frags++
	}
	if !right.Empty() {
		frags++
	}
	switch d := (j - i) - frags; {
	case d < 0:
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[j+1:], s.ranges[j:])
	case d > 0:
		s.ranges = append(s.ranges[:i+frags], s.ranges[j:]...)
	}
	k := i
	if !left.Empty() {
		s.ranges[k] = left
		k++
	}
	if !right.Empty() {
		s.ranges[k] = right
	}
}

func (s *flatSet) Contains(r Range) bool {
	if r.Empty() {
		return true
	}
	i := s.firstAtOrAfter(r.Start)
	return i < len(s.ranges) && s.ranges[i].Contains(r)
}

func (s *flatSet) Intersect(r Range) []Range {
	var out []Range
	if r.Empty() {
		return out
	}
	for i := s.firstAtOrAfter(r.Start); i < len(s.ranges); i++ {
		cur := s.ranges[i]
		if cur.Start >= r.End {
			break
		}
		seg := Range{max64(cur.Start, r.Start), min64(cur.End, r.End)}
		if !seg.Empty() {
			out = append(out, seg)
		}
	}
	return out
}

func (s *flatSet) Gaps(r Range) []Range {
	var out []Range
	if r.Empty() {
		return out
	}
	pos := r.Start
	for _, seg := range s.Intersect(r) {
		if seg.Start > pos {
			out = append(out, Range{pos, seg.Start})
		}
		pos = seg.End
	}
	if pos < r.End {
		out = append(out, Range{pos, r.End})
	}
	return out
}

// Take is RangeSet.Take built from Intersect and Remove: the lowest
// budget bytes of what the set holds of r.
func (s *flatSet) Take(r Range, budget units.Bytes) []Range {
	var taken []Range
	for _, seg := range s.Intersect(r) {
		if budget <= 0 {
			break
		}
		if seg.Len() > budget {
			seg.End = seg.Start + budget
		}
		taken = append(taken, seg)
		budget -= seg.Len()
	}
	for _, seg := range taken {
		s.Remove(seg)
	}
	return taken
}

func (s *flatSet) TakeFrom(from units.Bytes, budget units.Bytes) []Range {
	if budget <= 0 || len(s.ranges) == 0 {
		return nil
	}
	var taken []Range
	start := s.firstAtOrAfter(from)
	n := len(s.ranges)
	for k := 0; k < n && budget > 0; k++ {
		r := s.ranges[(start+k)%n]
		if r.Len() > budget {
			r = Range{r.Start, r.Start + budget}
		}
		taken = append(taken, r)
		budget -= r.Len()
	}
	for _, r := range taken {
		s.Remove(r)
	}
	sort.Slice(taken, func(i, j int) bool {
		ai, aj := taken[i].Start >= from, taken[j].Start >= from
		if ai != aj {
			return ai
		}
		return taken[i].Start < taken[j].Start
	})
	return taken
}

// checkAgainstFlat asserts that s holds exactly ref's ranges in a
// well-formed chunk list whose search key for each chunk is the End of
// its last range, and that its count and byte total match the ranges it
// holds.
func checkAgainstFlat(t *testing.T, step int, s *RangeSet, ref *flatSet) {
	t.Helper()
	k := 0
	var sum units.Bytes
	for c, ch := range s.chunks {
		if len(ch.ranges) == 0 || len(ch.ranges) > 2*chunkRanges {
			t.Fatalf("step %d: chunk %d holds %d ranges, want 1..%d", step, c, len(ch.ranges), 2*chunkRanges)
		}
		if last := ch.ranges[len(ch.ranges)-1]; ch.end != last.End {
			t.Fatalf("step %d: chunk %d keyed %d, its last range %v", step, c, ch.end, last)
		}
		for _, r := range ch.ranges {
			if k >= len(ref.ranges) {
				t.Fatalf("step %d: set holds more than the reference's %d ranges", step, len(ref.ranges))
			}
			if r != ref.ranges[k] {
				t.Fatalf("step %d: range %d (chunk %d) = %v, reference %v", step, k, c, r, ref.ranges[k])
			}
			sum += r.Len()
			k++
		}
	}
	if k != len(ref.ranges) || s.Len() != k {
		t.Fatalf("step %d: set walks %d ranges, Len %d, reference %d", step, k, s.Len(), len(ref.ranges))
	}
	if s.Bytes() != sum || sum != ref.Bytes() {
		t.Fatalf("step %d: Bytes %d, range sum %d, reference %d", step, s.Bytes(), sum, ref.Bytes())
	}
}

// TestRangeSetMatchesFlatReference drives the chunked set and the flat
// reference through the same randomized Add/Remove/Take/TakeFrom
// sequence, long enough to hold thousands of ranges, so windows cross
// many chunk splits and drops. A Take's budget is 0, part of what the
// range holds or more than the whole set. After every operation the
// sets must hold the same ranges, and random Contains/Gaps probes (some
// spanning many chunks) must answer alike.
func TestRangeSetMatchesFlatReference(t *testing.T) {
	const universe = 1 << 24
	rng := xrand.New(13)
	s, ref := &RangeSet{}, &flatSet{}
	randRange := func() Range {
		start := units.Bytes(rng.Int64n(universe))
		n := units.Bytes(rng.Int64n(256))
		if rng.Intn(500) == 0 {
			n = units.Bytes(rng.Int64n(universe / 32)) // bridges or cuts many chunks
		}
		return Range{start, start + n}
	}
	// straddle returns, one time in 50, a range from inside the last
	// range of one chunk to inside the first range of a later one (as an
	// add it bridges chunks, as a remove it cuts ranges at chunk edges),
	// and otherwise a random range.
	straddle := func() Range {
		if len(s.chunks) < 2 || rng.Intn(50) != 0 {
			return randRange()
		}
		c := rng.Intn(len(s.chunks) - 1)
		d := c + 1
		if rng.Intn(50) == 0 {
			d = min(c+2, len(s.chunks)-1) // swallows a whole chunk
		}
		a, b := s.chunks[c].ranges[len(s.chunks[c].ranges)-1], s.chunks[d].ranges[0]
		return Range{a.Start + units.Bytes(rng.Int64n(int64(a.Len()))), b.Start + 1 + units.Bytes(rng.Int64n(int64(b.Len())))}
	}
	var buf []Range
	step, peak, peakChunks := 0, 0, 0
	for round := 0; round < 2; round++ {
		for _, phase := range []struct{ add, remove, ops int }{
			{add: 90, remove: 8, ops: 10000}, // grow to thousands of ranges
			{add: 30, remove: 40, ops: 6000},
			{add: 5, remove: 15, ops: 3000}, // drain chunk by chunk, as write-back does
		} {
			for i := 0; i < phase.ops; i++ {
				step++
				switch roll := rng.Intn(100); {
				case roll < phase.add:
					r := straddle()
					s.Add(r)
					ref.Add(r)
				case roll < phase.add+phase.remove:
					r := straddle()
					s.Remove(r)
					ref.Remove(r)
				case roll%2 == 0:
					r := straddle()
					var budget units.Bytes
					switch rng.Intn(4) {
					case 0: // nothing
					case 1:
						budget = s.Bytes() + 1 + units.Bytes(rng.Int64n(1024))
					default:
						budget = units.Bytes(rng.Int64n(int64(r.Len()) + 1))
					}
					buf = append(buf[:0], Range{-2, -1}) // Take appends
					got, want := s.Take(r, budget, buf), ref.Take(r, budget)
					if got[0] != (Range{-2, -1}) || !equalRanges(got[1:], want) {
						t.Fatalf("step %d: Take(%v, %d) = %v, reference %v", step, r, budget, got, want)
					}
					buf = got
				default:
					from := units.Bytes(rng.Int64n(universe + 1024))
					budget := units.Bytes(rng.Int64n(4 << 10))
					got, want := s.TakeFrom(from, budget, buf[:0]), ref.TakeFrom(from, budget)
					if !equalRanges(got, want) {
						t.Fatalf("step %d: TakeFrom(%d, %d) = %v, reference %v", step, from, budget, got, want)
					}
					buf = got
				}
				checkAgainstFlat(t, step, s, ref)
				peak, peakChunks = max(peak, s.Len()), max(peakChunks, len(s.chunks))
				for p := 0; p < 3; p++ {
					r := randRange()
					if got, want := s.Contains(r), ref.Contains(r); got != want {
						t.Fatalf("step %d: Contains(%v) = %v, reference %v", step, r, got, want)
					}
					if got, want := s.Gaps(r, nil), ref.Gaps(r); !equalRanges(got, want) {
						t.Fatalf("step %d: Gaps(%v) = %v, reference %v", step, r, got, want)
					}
				}
			}
		}
	}
	if peak < 2000 || peakChunks < 10 {
		t.Fatalf("sequence peaked at %d ranges in %d chunks: too few to cross chunk boundaries", peak, peakChunks)
	}
	t.Logf("%d steps, peak %d ranges in %d chunks", step, peak, peakChunks)
}

// TestRangeSetTakeFromWrapsPastLastChunk takes a budget that starts in
// the last chunk and runs on through the first chunks, and checks the
// taken ranges and what remains against the flat reference.
func TestRangeSetTakeFromWrapsPastLastChunk(t *testing.T) {
	s, ref := &RangeSet{}, &flatSet{}
	for i := units.Bytes(0); i < 20*chunkRanges; i++ {
		r := Range{i * 100, i*100 + 10}
		s.Add(r)
		ref.Add(r)
	}
	if len(s.chunks) < 4 {
		t.Fatalf("%d ranges fill only %d chunks", s.Len(), len(s.chunks))
	}
	// Start inside a range halfway through the last chunk; the budget
	// outlasts the last chunk by more than the first chunk.
	last := s.chunks[len(s.chunks)-1].ranges
	from := last[len(last)/2].Start + 5
	firstEnd := s.chunks[0].ranges[len(s.chunks[0].ranges)-1].End
	budget := units.Bytes(3*chunkRanges) * 10
	got, want := s.TakeFrom(from, budget, nil), ref.TakeFrom(from, budget)
	if !equalRanges(got, want) {
		t.Fatalf("TakeFrom(%d, %d) = %v, reference %v", from, budget, got, want)
	}
	if got[0].Start < from || got[len(got)-2].End <= firstEnd {
		t.Fatalf("TakeFrom(%d) = %v..%v, want a sweep from %d wrapping past offset %d",
			from, got[0], got[len(got)-1], from, firstEnd)
	}
	checkAgainstFlat(t, 1, s, ref)
}

// readRange returns a random range for the one-walk read tests, over
// the set s and its flat reference ref. One time in five it touches a
// held range at an edge (starting at its End or ending at its Start),
// one in twenty it spans from inside the last range of a chunk to
// inside the first of the next, one in twenty it fills the hole between
// two chunks exactly, and otherwise it is a short random range.
func readRange(rng *xrand.Rand, s *RangeSet, ref *flatSet, universe int64) Range {
	roll := rng.Intn(20)
	switch {
	case roll < 4 && len(ref.ranges) > 0:
		e := ref.ranges[rng.Intn(len(ref.ranges))]
		n := units.Bytes(1 + rng.Int64n(300))
		if roll < 2 {
			return Range{e.End, e.End + n}
		}
		return Range{max64(0, e.Start-n), e.Start}
	case roll < 6 && len(s.chunks) >= 2:
		c := rng.Intn(len(s.chunks) - 1)
		a, b := s.chunks[c].ranges[len(s.chunks[c].ranges)-1], s.chunks[c+1].ranges[0]
		if roll == 5 {
			return Range{a.End, b.Start}
		}
		return Range{a.Start + units.Bytes(rng.Int64n(int64(a.Len()))), b.Start + 1 + units.Bytes(rng.Int64n(int64(b.Len())))}
	default:
		start := units.Bytes(rng.Int64n(universe))
		return Range{start, start + units.Bytes(rng.Int64n(256))}
	}
}

// TestFillMatchesGapsThenAdd drives the chunked set's one-walk Fill
// and the flat reference's Gaps followed by Add through the same
// randomized sequence: thousands of reads and some
// removals, so the set grows to thousands of ranges in many chunks and
// then drains. The gaps must match, and the sets must hold the same
// ranges after every step. The gaps buffer is reused throughout, as the
// page cache reuses its own.
func TestFillMatchesGapsThenAdd(t *testing.T) {
	const universe = 1 << 26
	rng := xrand.New(29)
	s, ref := &RangeSet{}, &flatSet{}
	var buf []Range
	step, peak, peakChunks := 0, 0, 0
	for _, phase := range []struct{ fill, ops int }{
		{fill: 95, ops: 12000},
		{fill: 40, ops: 6000},
		{fill: 10, ops: 6000},
	} {
		for i := 0; i < phase.ops; i++ {
			step++
			r := readRange(rng, s, ref, universe)
			if rng.Intn(100) < phase.fill {
				want := ref.Gaps(r)
				ref.Add(r)
				buf = s.Fill(r, buf[:0])
				if !equalRanges(buf, want) {
					t.Fatalf("step %d: Fill(%v) gaps %v, reference %v", step, r, buf, want)
				}
			} else {
				r.End += units.Bytes(rng.Int64n(4096))
				s.Remove(r)
				ref.Remove(r)
			}
			checkAgainstFlat(t, step, s, ref)
			peak, peakChunks = max(peak, s.Len()), max(peakChunks, len(s.chunks))
		}
	}
	if peak < 2000 || peakChunks < 10 {
		t.Fatalf("sequence peaked at %d ranges in %d chunks: too few to cross chunk boundaries", peak, peakChunks)
	}
	t.Logf("%d steps, peak %d ranges in %d chunks", step, peak, peakChunks)
}

// recordingDevice serves every request at once and records the reads
// it was asked for.
type recordingDevice struct {
	e     *sim.Engine
	reads []Range
}

func (d *recordingDevice) Submit(op Op, off, n units.Bytes, done func()) sim.Time {
	if op == OpRead {
		d.reads = append(d.reads, Range{off, off + n})
	}
	if done != nil {
		d.e.At(d.e.Now(), done)
	}
	return d.e.Now()
}
func (d *recordingDevice) FreeAt() sim.Time          { return d.e.Now() }
func (d *recordingDevice) Idle() bool                { return true }
func (d *recordingDevice) Capacity() units.Bytes     { return 1 << 40 }
func (d *recordingDevice) Stats() DiskStats          { return DiskStats{} }
func (d *recordingDevice) SetFaults(*fault.Injector) {}

// TestBurstBufferSplitMatchesReference: a burst-buffer read splits the
// request into tier hits and backing-store misses in one walk over the
// resident set. Over thousands of random absorbed writes and reads that
// bridge chunks or touch resident ranges at their edges, the hit bytes
// must be the flat reference's Intersect total and the reads sent to
// the backing store its Gaps.
func TestBurstBufferSplitMatchesReference(t *testing.T) {
	const universe = 1 << 26
	e := sim.NewEngine()
	backing := &recordingDevice{e: e}
	b := NewBurstBuffer(e, backing, DefaultNVRAM(), nil)
	rng := xrand.New(31)
	ref := &flatSet{}
	const steps = 12000
	for step := 1; step <= steps; step++ {
		r := readRange(rng, &b.resident, ref, universe)
		if rng.Intn(100) < 70 {
			b.Submit(OpWrite, r.Start, r.Len(), nil)
			ref.Add(r)
			continue
		}
		var wantHit units.Bytes
		for _, h := range ref.Intersect(r) {
			wantHit += h.Len()
		}
		hitBefore := b.TierStats().HitBytes
		backing.reads = backing.reads[:0]
		b.Submit(OpRead, r.Start, r.Len(), nil)
		if got := b.TierStats().HitBytes - hitBefore; got != wantHit {
			t.Fatalf("step %d: read %v hit %d bytes, reference %d", step, r, got, wantHit)
		}
		if want := ref.Gaps(r); !equalRanges(backing.reads, want) {
			t.Fatalf("step %d: read %v missed %v, reference %v", step, r, backing.reads, want)
		}
	}
	checkAgainstFlat(t, steps, &b.resident, ref)
	if b.resident.Len() < 2000 {
		t.Fatalf("resident set holds %d ranges: too few to cross chunk boundaries", b.resident.Len())
	}
}
