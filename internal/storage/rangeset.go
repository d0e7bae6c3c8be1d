// Package storage models the node's I/O stack from scratch: a 7200 rpm
// hard disk with seek and rotational mechanics, a write-back page cache
// with an elevator (LBA-sorting) write-back daemon, and an extent-based
// filesystem that lays every file out in contiguous extents. The
// devices under the cache (a disk, a RAID-0 array or an NVRAM burst
// buffer) share one Device contract. The paper's Table III
// (fio), its read/write stage powers (Fig 6, Table II), and its §V-D
// data-reorganization hypothetical all fall out of this stack.
//
// The disks and the cache thresholds are parameters (HDD or SSD, the
// 64 GB node's dirty ratios); the rest of the stack is the paper's one
// testbed and so constant: 4 MiB extents with the journal at 1 GiB and
// data from DataStart, a 16 GiB NVRAM tier that drains after 2 s of
// rest, 3 GB/s cache copies and a 256 KiB sequential window.
//
// The cache tracks its clean and dirty bytes as two disjoint RangeSets,
// whose union is what is resident. Every write-back batch, an elevator
// sweep, the FIFO queue's or an fsync's, is taken from the dirty set by
// RangeSet.Take and joins the clean set, and every foreground wait for
// the media (Sync, SyncRange, the dirty-limit throttle) is one
// sim.Engine.AdvanceWhile loop.
package storage

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/units"
)

// Range is a half-open interval [Start, End) of disk byte offsets.
type Range struct {
	Start, End units.Bytes
}

// Len returns the range length.
func (r Range) Len() units.Bytes { return r.End - r.Start }

// Empty reports whether the range covers no bytes.
func (r Range) Empty() bool { return r.End <= r.Start }

// Overlaps reports whether r and s share any byte.
func (r Range) Overlaps(s Range) bool { return r.Start < s.End && s.Start < r.End }

// Contains reports whether r fully covers s.
func (r Range) Contains(s Range) bool { return r.Start <= s.Start && s.End <= r.End }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// chunkRanges is how many ranges a chunk keeps when it splits; a chunk
// splits once it holds more than twice this. An edit then copies a
// bounded number of ranges, and the chunk list stays short enough that
// inserting or dropping a chunk is cheap.
const chunkRanges = 64

// RangeSet is a set of byte offsets stored as sorted, non-overlapping,
// non-adjacent ranges. It backs the page cache's clean/dirty tracking.
// The zero value is an empty, ready-to-use set.
//
// The ranges live in an ascending list of chunks, each a sorted,
// non-empty slice of at most 2*chunkRanges ranges that shares no memory
// with another chunk. A lookup binary-searches the chunk list by the
// keys it holds, each chunk's last End, and then the chunk, so an edit
// costs O(log n) plus a copy bounded by the chunk size. The set also
// keeps its range count and byte total, so Len and Bytes are O(1): the
// page cache reads Bytes twice per write.
type RangeSet struct {
	chunks []chunk
	spare  []Range // an emptied set's last chunk, reused by the next edit
	n      int
	bytes  units.Bytes
}

// chunk is one entry of the chunk list: the chunk's ranges and its
// search key, the End of its last range, kept in the list itself so a
// search over the chunks loads no chunk.
type chunk struct {
	end    units.Bytes
	ranges []Range
}

// loc addresses the range chunks[c].ranges[i]; {len(chunks), 0} is the end.
type loc struct{ c, i int }

// Len returns the number of maximal ranges in the set.
func (s *RangeSet) Len() int { return s.n }

// Bytes returns the total number of bytes covered.
func (s *RangeSet) Bytes() units.Bytes { return s.bytes }

// Ranges returns a copy of the maximal ranges in ascending order.
func (s *RangeSet) Ranges() []Range {
	out := make([]Range, 0, s.n)
	for _, ch := range s.chunks {
		out = append(out, ch.ranges...)
	}
	return out
}

// First returns the lowest range. The set must not be empty.
func (s *RangeSet) First() Range { return s.chunks[0].ranges[0] }

// Empty reports whether the set covers no bytes.
func (s *RangeSet) Empty() bool { return s.n == 0 }

func (s *RangeSet) at(p loc) Range { return s.chunks[p.c].ranges[p.i] }

// next returns the position after p, moving on to the next chunk at a
// chunk's end.
func (s *RangeSet) next(p loc) loc {
	if p.i++; p.i == len(s.chunks[p.c].ranges) {
		return loc{p.c + 1, 0}
	}
	return p
}

// firstAtOrAfter returns the position of the first range whose End is
// greater than off (the first range that could overlap or follow off).
// Both binary searches are written out (calling a search predicate
// through a closure per probe cost a fifth of a random-read test's
// time) and branch-free: each probe adds half & -b to the lower bound,
// b the comparison as 0 or 1, which go1.24 compiles to SETLE and no
// conditional jump. An if around the addition compiles to one, which
// on random offsets mispredicts about every other probe.
func (s *RangeSet) firstAtOrAfter(off units.Bytes) loc {
	cs := s.chunks
	if len(cs) == 0 {
		return loc{}
	}
	c := 0
	for n := len(cs); n > 1; {
		half, b := n>>1, 0
		if cs[c+half].end <= off {
			b = 1
		}
		c += half & -b
		n -= half
	}
	b := 0
	if cs[c].end <= off {
		b = 1
	}
	if c += b; c == len(cs) {
		return loc{c, 0}
	}
	ch := cs[c].ranges
	i := 0
	for n := len(ch); n > 1; {
		half, b := n>>1, 0
		if ch[i+half].End <= off {
			b = 1
		}
		i += half & -b
		n -= half
	}
	b = 0
	if ch[i].End <= off {
		b = 1
	}
	return loc{c, i + b}
}

// span returns the window [p, q) of the ranges that overlap or touch r
// (adjacency merges too, so it starts at the first End >= r.Start) and r
// widened to cover them: adding r replaces the window by merged.
func (s *RangeSet) span(r Range) (p, q loc, merged Range) {
	p = s.firstAtOrAfter(r.Start - 1)
	merged = r
	for q = p; q.c < len(s.chunks) && s.at(q).Start <= r.End; q = s.next(q) {
		cur := s.at(q)
		merged = Range{min64(merged.Start, cur.Start), max64(merged.End, cur.End)}
	}
	return p, q, merged
}

// gapsIn appends to buf the portions of r that the window [p, q) from
// span(r) leaves uncovered, in order.
func (s *RangeSet) gapsIn(r Range, p, q loc, buf []Range) []Range {
	pos := r.Start
	for x := p; x != q; x = s.next(x) {
		cur := s.at(x)
		if cur.Start > pos {
			buf = append(buf, Range{pos, cur.Start})
		}
		pos = max64(pos, cur.End)
	}
	if pos < r.End {
		buf = append(buf, Range{pos, r.End})
	}
	return buf
}

// Add inserts [r.Start, r.End), merging with overlapping or adjacent
// ranges. Empty ranges are ignored.
func (s *RangeSet) Add(r Range) {
	if r.Empty() {
		return
	}
	p, q, merged := s.span(r)
	s.replace(p, q, merged)
}

// Fill adds r to the set and appends to buf the portions of r that the
// set did not cover before, in order: Gaps followed by Add, with one
// search. Empty ranges are ignored.
func (s *RangeSet) Fill(r Range, buf []Range) []Range {
	if r.Empty() {
		return buf
	}
	p, q, merged := s.span(r)
	buf = s.gapsIn(r, p, q, buf)
	s.replace(p, q, merged)
	return buf
}

// Remove deletes [r.Start, r.End) from the set, splitting ranges that
// straddle the boundary. Only the first and last overlapped ranges can
// leave fragments behind.
func (s *RangeSet) Remove(r Range) {
	if r.Empty() {
		return
	}
	p := s.firstAtOrAfter(r.Start)
	q := p
	var last Range
	for ; q.c < len(s.chunks) && s.at(q).Start < r.End; q = s.next(q) {
		last = s.at(q)
	}
	if p != q {
		s.cut(p, q, Range{s.at(p).Start, r.Start}, Range{r.End, last.End})
	}
}

// Take removes what the set holds of r, lowest offset first and at
// most budget bytes, and appends the removed ranges to buf in ascending
// order: one search and one edit. A range the budget cuts short gives
// up its beginning. Every write-back batch is built on it.
func (s *RangeSet) Take(r Range, budget units.Bytes, buf []Range) []Range {
	if r.Empty() || budget <= 0 {
		return buf
	}
	p := s.firstAtOrAfter(r.Start)
	q := p
	var cur, seg Range
	for ; q.c < len(s.chunks) && budget > 0 && s.at(q).Start < r.End; q = s.next(q) {
		cur = s.at(q)
		seg = Range{max64(cur.Start, r.Start), min64(cur.End, r.End)}
		if seg.Len() > budget {
			seg.End = seg.Start + budget
		}
		buf = append(buf, seg)
		budget -= seg.Len()
	}
	if p != q {
		s.cut(p, q, Range{s.at(p).Start, r.Start}, Range{seg.End, cur.End})
	}
	return buf
}

// cut replaces the window [p, q) by the non-empty ones of head (what is
// left of its first range) and tail (what is left of its last).
func (s *RangeSet) cut(p, q loc, head, tail Range) {
	var frags [2]Range
	k := 0
	for _, f := range [2]Range{head, tail} {
		if !f.Empty() {
			frags[k] = f
			k++
		}
	}
	s.replace(p, q, frags[:k]...)
}

// replace rewrites the window [p, q) of ranges, which may cross chunk
// boundaries, as repl, keeping the count and byte total in step. repl
// must fit between the window's neighbours in order.
func (s *RangeSet) replace(p, q loc, repl ...Range) {
	for x := p; x != q; x = s.next(x) {
		s.bytes -= s.at(x).Len()
		s.n--
	}
	for _, r := range repl {
		s.bytes += r.Len()
	}
	s.n += len(repl)

	// Pin the window to chunks p.c..q.c, with q.i an end index in q.c.
	switch {
	case p.c == len(s.chunks) && p.c == 0:
		s.chunks = append(s.chunks, chunk{ranges: s.spare})
		s.spare = nil
		q = p
	case p.c == len(s.chunks):
		p = loc{p.c - 1, len(s.chunks[p.c-1].ranges)}
		q = p
	case q.i == 0 && q.c > p.c:
		q = loc{q.c - 1, len(s.chunks[q.c-1].ranges)}
	}
	ch := s.chunks[p.c].ranges
	if p.c == q.c {
		ch = slices.Replace(ch, p.i, q.i, repl...)
	} else {
		ch = append(slices.Replace(ch, p.i, len(ch), repl...), s.chunks[q.c].ranges[q.i:]...)
		s.chunks = slices.Delete(s.chunks, p.c+1, q.c+1)
	}
	if len(ch) == 0 {
		if len(s.chunks) == 1 {
			s.spare = ch
		}
		s.chunks = slices.Delete(s.chunks, p.c, p.c+1)
		return
	}
	// Split an oversized chunk: the head keeps its memory, the rest
	// moves to a fresh chunk.
	c := p.c
	for len(ch) > 2*chunkRanges {
		rest := slices.Clone(ch[chunkRanges:])
		s.chunks[c] = chunk{ch[chunkRanges-1].End, ch[:chunkRanges]}
		c++
		s.chunks = slices.Insert(s.chunks, c, chunk{ranges: rest})
		ch = rest
	}
	s.chunks[c] = chunk{ch[len(ch)-1].End, ch}
}

// Contains reports whether every byte of r is in the set.
func (s *RangeSet) Contains(r Range) bool {
	if r.Empty() {
		return true
	}
	p := s.firstAtOrAfter(r.Start)
	return p.c < len(s.chunks) && s.at(p).Contains(r)
}

// Gaps appends to buf the portions of r NOT covered by the set, in
// order, and returns the extended slice.
func (s *RangeSet) Gaps(r Range, buf []Range) []Range {
	if r.Empty() {
		return buf
	}
	p, q, _ := s.span(r)
	return s.gapsIn(r, p, q, buf)
}

// TakeFrom removes up to budget bytes of ranges from the set and
// appends them to buf in the elevator's sweep order: upward from offset
// 'from', then wrapping around to the lowest offset, as two Takes. A
// range that straddles 'from' is taken whole (the budget may cut its
// end): it counts first against the budget but is appended last, after
// the wrap.
func (s *RangeSet) TakeFrom(from, budget units.Bytes, buf []Range) []Range {
	if budget <= 0 {
		return buf
	}
	lo := from
	if p := s.firstAtOrAfter(from); p.c < len(s.chunks) && s.at(p).Start < from {
		lo = s.at(p).Start
	}
	n, before := len(buf), s.bytes
	buf = s.Take(Range{lo, math.MaxInt64}, budget, buf)
	buf = s.Take(Range{math.MinInt64, lo}, budget-(before-s.bytes), buf)
	if lo < from {
		straddler := buf[n]
		copy(buf[n:], buf[n+1:])
		buf[len(buf)-1] = straddler
	}
	return buf
}

func max64(a, b units.Bytes) units.Bytes {
	if a > b {
		return a
	}
	return b
}

func min64(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
