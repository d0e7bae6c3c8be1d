package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func rs(pairs ...units.Bytes) *RangeSet {
	s := &RangeSet{}
	for i := 0; i < len(pairs); i += 2 {
		s.Add(Range{pairs[i], pairs[i+1]})
	}
	return s
}

func equalRanges(a []Range, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeBasics(t *testing.T) {
	r := Range{10, 20}
	if r.Len() != 10 {
		t.Errorf("Len = %d", r.Len())
	}
	if r.Empty() {
		t.Error("non-empty range reported Empty")
	}
	if !(Range{20, 20}).Empty() {
		t.Error("zero-length range not Empty")
	}
	if !r.Overlaps(Range{19, 25}) || r.Overlaps(Range{20, 25}) {
		t.Error("Overlaps boundary wrong (half-open)")
	}
	if !r.Contains(Range{10, 20}) || r.Contains(Range{10, 21}) {
		t.Error("Contains wrong")
	}
}

func TestAddDisjoint(t *testing.T) {
	s := rs(10, 20, 40, 50)
	if s.Len() != 2 || s.Bytes() != 20 {
		t.Errorf("Len=%d Bytes=%d, want 2/20", s.Len(), s.Bytes())
	}
}

func TestAddMergesOverlap(t *testing.T) {
	s := rs(10, 20, 15, 30)
	if !equalRanges(s.Ranges(), []Range{{10, 30}}) {
		t.Errorf("ranges = %v, want [10,30)", s.Ranges())
	}
}

func TestAddMergesAdjacent(t *testing.T) {
	s := rs(10, 20, 20, 30)
	if !equalRanges(s.Ranges(), []Range{{10, 30}}) {
		t.Errorf("adjacent ranges not merged: %v", s.Ranges())
	}
}

func TestAddBridgesMany(t *testing.T) {
	s := rs(0, 10, 20, 30, 40, 50)
	s.Add(Range{5, 45})
	if !equalRanges(s.Ranges(), []Range{{0, 50}}) {
		t.Errorf("bridge merge = %v, want [0,50)", s.Ranges())
	}
}

func TestAddEmptyIgnored(t *testing.T) {
	s := rs()
	s.Add(Range{10, 10})
	s.Add(Range{10, 5})
	if !s.Empty() {
		t.Errorf("empty adds produced %v", s.Ranges())
	}
}

func TestAddInsertInMiddle(t *testing.T) {
	s := rs(0, 10, 100, 110)
	s.Add(Range{50, 60})
	if !equalRanges(s.Ranges(), []Range{{0, 10}, {50, 60}, {100, 110}}) {
		t.Errorf("middle insert = %v", s.Ranges())
	}
}

func TestRemoveSplits(t *testing.T) {
	s := rs(0, 100)
	s.Remove(Range{40, 60})
	if !equalRanges(s.Ranges(), []Range{{0, 40}, {60, 100}}) {
		t.Errorf("split remove = %v", s.Ranges())
	}
}

func TestRemoveEdges(t *testing.T) {
	s := rs(10, 30)
	s.Remove(Range{0, 15})
	s.Remove(Range{25, 40})
	if !equalRanges(s.Ranges(), []Range{{15, 25}}) {
		t.Errorf("edge remove = %v", s.Ranges())
	}
}

func TestRemoveWhole(t *testing.T) {
	s := rs(10, 30, 50, 60)
	s.Remove(Range{0, 100})
	if !s.Empty() {
		t.Errorf("remove-all left %v", s.Ranges())
	}
}

func TestRemoveNoOverlap(t *testing.T) {
	s := rs(10, 20)
	s.Remove(Range{30, 40})
	if !equalRanges(s.Ranges(), []Range{{10, 20}}) {
		t.Errorf("no-op remove changed set: %v", s.Ranges())
	}
}

func TestContains(t *testing.T) {
	s := rs(10, 20, 30, 40)
	cases := []struct {
		r    Range
		want bool
	}{
		{Range{10, 20}, true},
		{Range{12, 18}, true},
		{Range{10, 21}, false},
		{Range{15, 35}, false},
		{Range{25, 26}, false},
		{Range{5, 5}, true}, // empty range trivially contained
	}
	for _, c := range cases {
		if got := s.Contains(c.r); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestTake(t *testing.T) {
	s := rs(10, 20, 30, 40)
	if out := s.Take(Range{21, 29}, 100, nil); len(out) != 0 || s.Len() != 2 {
		t.Errorf("Take of gap = %v, left %v", out, s.Ranges())
	}
	got := s.Take(Range{15, 35}, 100, nil)
	if !equalRanges(got, []Range{{15, 20}, {30, 35}}) {
		t.Errorf("Take = %v", got)
	}
	if !equalRanges(s.Ranges(), []Range{{10, 15}, {35, 40}}) {
		t.Errorf("remaining = %v", s.Ranges())
	}
	// The budget cuts the lowest range short: it gives up its
	// beginning, and a zero budget takes nothing.
	s = rs(10, 20, 30, 40)
	buf := []Range{{0, 1}}
	if got := s.Take(Range{12, 40}, 0, buf); !equalRanges(got, buf) {
		t.Errorf("zero budget took %v", got[1:])
	}
	if got := s.Take(Range{12, 40}, 5, buf); !equalRanges(got, []Range{{0, 1}, {12, 17}}) {
		t.Errorf("budgeted Take appended %v", got)
	}
	if !equalRanges(s.Ranges(), []Range{{10, 12}, {17, 20}, {30, 40}}) {
		t.Errorf("remaining after budgeted Take = %v", s.Ranges())
	}
}

func TestGaps(t *testing.T) {
	s := rs(10, 20, 30, 40)
	got := s.Gaps(Range{0, 50}, nil)
	if !equalRanges(got, []Range{{0, 10}, {20, 30}, {40, 50}}) {
		t.Errorf("Gaps = %v", got)
	}
	if out := s.Gaps(Range{12, 18}, nil); len(out) != 0 {
		t.Errorf("Gaps inside covered = %v", out)
	}
	full := rs()
	if out := full.Gaps(Range{5, 10}, nil); !equalRanges(out, []Range{{5, 10}}) {
		t.Errorf("Gaps of empty set = %v", out)
	}
}

func TestTakeFromBudget(t *testing.T) {
	s := rs(0, 100, 200, 300, 400, 500)
	taken := s.TakeFrom(150, 150, nil)
	// Sweep starts at 200, takes [200,300) then 50 bytes of [400,450).
	if !equalRanges(taken, []Range{{200, 300}, {400, 450}}) {
		t.Errorf("TakeFrom = %v", taken)
	}
	if !equalRanges(s.Ranges(), []Range{{0, 100}, {450, 500}}) {
		t.Errorf("remaining = %v", s.Ranges())
	}
}

func TestTakeFromWrapsAround(t *testing.T) {
	s := rs(0, 50, 900, 950)
	taken := s.TakeFrom(800, 100, nil)
	if !equalRanges(taken, []Range{{900, 950}, {0, 50}}) {
		t.Errorf("wrap TakeFrom = %v", taken)
	}
	if !s.Empty() {
		t.Errorf("remaining after wrap = %v", s.Ranges())
	}
}

func TestTakeFromZeroBudget(t *testing.T) {
	s := rs(0, 10)
	if taken := s.TakeFrom(0, 0, nil); taken != nil {
		t.Errorf("zero budget took %v", taken)
	}
}

func TestClone(t *testing.T) {
	s := rs(0, 10)
	c := s.Clone()
	c.Add(Range{20, 30})
	if s.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: s=%v c=%v", s.Ranges(), c.Ranges())
	}
}

// invariant checks sortedness, non-overlap, non-adjacency, non-emptiness.
func invariant(s *RangeSet) bool {
	rs := s.Ranges()
	for i, r := range rs {
		if r.Empty() {
			return false
		}
		if i > 0 && rs[i-1].End >= r.Start {
			return false
		}
	}
	return true
}

// Property: after arbitrary interleaved Add/Remove operations the set
// invariant holds and membership matches a brute-force bitmap model.
func TestRangeSetModelProperty(t *testing.T) {
	const universe = 256
	f := func(ops []struct {
		Add        bool
		Start, Len uint8
	}) bool {
		s := &RangeSet{}
		var model [universe]bool
		for _, op := range ops {
			start := units.Bytes(op.Start)
			end := start + units.Bytes(op.Len%32)
			if end > universe {
				end = universe
			}
			r := Range{start, end}
			if op.Add {
				s.Add(r)
				for b := start; b < end; b++ {
					model[b] = true
				}
			} else {
				s.Remove(r)
				for b := start; b < end; b++ {
					model[b] = false
				}
			}
			if !invariant(s) {
				return false
			}
		}
		// Compare byte-level membership.
		var want units.Bytes
		for b := 0; b < universe; b++ {
			if model[b] {
				want++
				if !s.Contains(Range{units.Bytes(b), units.Bytes(b + 1)}) {
					return false
				}
			} else if s.Contains(Range{units.Bytes(b), units.Bytes(b + 1)}) {
				return false
			}
		}
		return s.Bytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: TakeFrom removes exactly what it returns, never exceeds the
// budget unless a single range bounds it, and preserves the invariant.
func TestTakeFromProperty(t *testing.T) {
	f := func(seeds []uint8, from, budget uint8) bool {
		s := &RangeSet{}
		for _, v := range seeds {
			start := units.Bytes(v) * 3
			s.Add(Range{start, start + 2})
		}
		before := s.Bytes()
		taken := s.TakeFrom(units.Bytes(from), units.Bytes(budget), nil)
		var takenBytes units.Bytes
		for _, r := range taken {
			takenBytes += r.Len()
			if gaps := s.Gaps(r, nil); len(gaps) != 1 || gaps[0] != r {
				return false // taken ranges must be gone from the set
			}
		}
		if takenBytes > units.Bytes(budget) {
			return false
		}
		return invariant(s) && s.Bytes() == before-takenBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
