package storage

import (
	"slices"
	"testing"

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
