package ocean

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// referenceMomentum and referenceContinuity are the shallow-water
// passes as written before the bounds-check-elimination
// restructuring: flat-index loads with the naive neighbor arithmetic.
// The rewritten passes must reproduce their output bit for bit.
func referenceMomentum(s *Solver, lo, hi int) (nu, nv *field.Grid) {
	p := s.params
	nx := p.NX
	gdtx := p.Gravity * p.DT / p.DX
	gdty := p.Gravity * p.DT / p.DY
	f := p.Coriolis * p.DT
	nu = field.New(nx, p.NY)
	nv = field.New(nx, p.NY)
	h, u, v := s.h, s.u, s.v
	for y := lo + 1; y < hi+1; y++ {
		row := y * nx
		up, down := row-nx, row+nx
		for x := 1; x < nx-1; x++ {
			i := row + x
			nu.Data[i] = u.Data[i] - gdtx*(h.Data[i+1]-h.Data[i-1])/2 + f*v.Data[i]
			nv.Data[i] = v.Data[i] - gdty*(h.Data[down+x]-h.Data[up+x])/2 - f*u.Data[i]
		}
	}
	return nu, nv
}

func referenceContinuity(s *Solver, lo, hi int) *field.Grid {
	p := s.params
	nx := p.NX
	hdtx := p.Depth * p.DT / p.DX
	hdty := p.Depth * p.DT / p.DY
	nh := field.New(nx, p.NY)
	h, u, v := s.h, s.u, s.v
	for y := lo + 1; y < hi+1; y++ {
		row := y * nx
		up, down := row-nx, row+nx
		for x := 1; x < nx-1; x++ {
			i := row + x
			nh.Data[i] = h.Data[i] -
				hdtx*(u.Data[i+1]-u.Data[i-1])/2 -
				hdty*(v.Data[down+x]-v.Data[up+x])/2
		}
	}
	return nh
}

// TestPassesMatchReference drives the restructured momentum and
// continuity passes and their pre-restructuring references over
// randomized fields, asserting bit-identical interiors. Coriolis is
// nonzero so every term in the momentum update participates.
func TestPassesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nx := 3 + rng.Intn(40)
		ny := 3 + rng.Intn(40)
		s := NewSolver(Params{
			NX: nx, NY: ny, Depth: 100, Gravity: 9.81,
			DX: 1000, DY: 1000, Coriolis: 1e-4,
		})
		for _, g := range []*field.Grid{s.h, s.u, s.v} {
			for i := range g.Data {
				g.Data[i] = (rng.Float64() - 0.5) * float64(int(1)<<uint(rng.Intn(20)))
			}
		}
		wantU, wantV := referenceMomentum(s, 0, ny-2)
		s.momentumPass()
		wantH := referenceContinuity(s, 0, ny-2)
		s.continuityPass()
		for y := 1; y < ny-1; y++ {
			for x := 1; x < nx-1; x++ {
				i := y*nx + x
				if s.nu.Data[i] != wantU.Data[i] || s.nv.Data[i] != wantV.Data[i] {
					t.Fatalf("trial %d (%dx%d): momentum (%d,%d) = (%v,%v), reference (%v,%v)",
						trial, nx, ny, x, y, s.nu.Data[i], s.nv.Data[i], wantU.Data[i], wantV.Data[i])
				}
				if s.nh.Data[i] != wantH.Data[i] {
					t.Fatalf("trial %d (%dx%d): continuity (%d,%d) = %v, reference %v",
						trial, nx, ny, x, y, s.nh.Data[i], wantH.Data[i])
				}
			}
		}
	}
}
