package heat

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// referenceSweep is the stencil kernel as written before the
// bounds-check-elimination restructuring: straight indexed loads off
// three row slices. The rewritten sweep must reproduce its output
// bit for bit — same FP operation order, just a shape the compiler
// can prove in-bounds.
func referenceSweep(cur, next *field.Grid, rx, ry float64, lo, hi int) {
	nx := cur.NX
	for y := lo + 1; y < hi+1; y++ {
		c := cur.Data[y*nx : (y+1)*nx]
		up := cur.Data[(y-1)*nx : y*nx]
		down := cur.Data[(y+1)*nx : (y+2)*nx]
		out := next.Data[y*nx : (y+1)*nx]
		for x := 1; x < nx-1; x++ {
			out[x] = c[x] +
				rx*(c[x-1]-2*c[x]+c[x+1]) +
				ry*(up[x]-2*c[x]+down[x])
		}
	}
}

// TestSweepMatchesReference drives the solver's restructured sweep and
// the pre-restructuring reference over randomized fields and asserts
// every interior cell is bit-identical. Any FP reassociation in the
// rewrite — even one that is mathematically equal — fails here.
func TestSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nx := 3 + rng.Intn(40)
		ny := 3 + rng.Intn(40)
		s := NewSolver(Params{NX: nx, NY: ny, Alpha: 1, DX: 1, DY: 1})
		for i := range s.cur.Data {
			// Wide magnitude spread so rounding differences can't hide.
			s.cur.Data[i] = (rng.Float64() - 0.5) * float64(int(1)<<uint(rng.Intn(30)))
		}
		want := field.New(nx, ny)
		referenceSweep(s.cur, want, s.rx, s.ry, 0, ny-2)

		s.sweep()
		for y := 1; y < ny-1; y++ {
			for x := 1; x < nx-1; x++ {
				got := s.next.Data[y*nx+x]
				if got != want.Data[y*nx+x] {
					t.Fatalf("trial %d (%dx%d): cell (%d,%d) = %v, reference %v",
						trial, nx, ny, x, y, got, want.Data[y*nx+x])
				}
			}
		}
	}
}
