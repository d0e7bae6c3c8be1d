// Package heat implements the proxy application of the paper: a 2-D
// explicit finite-difference (FTCS) heat-conduction simulation whose
// edges are held at one fixed temperature (a Dirichlet boundary) and
// whose rectangular sources are held at theirs on every step. The
// solver does real numerical work on real buffers — the checkpoints the
// pipelines write and the frames the visualizer renders are genuine
// data products of this solver — while the platform model separately
// charges virtual time for the work performed.
package heat

import (
	"fmt"
	"math"

	"repro/internal/field"
)

// Source holds a rectangular region at a fixed temperature — the
// "heating element" driving the simulation.
type Source struct {
	X0, Y0, X1, Y1 int // half-open cell rectangle
	Temp           float64
}

// Params configures the solver.
type Params struct {
	NX, NY int
	// Alpha is the thermal diffusivity; DX/DY the cell spacing.
	Alpha, DX, DY float64
	// DT is the time step; 0 selects 90 % of the FTCS stability limit.
	DT float64
	// BoundaryTemp is the fixed edge temperature (a Dirichlet cold
	// bath).
	BoundaryTemp float64
	// InitialTemp fills the interior at start.
	InitialTemp float64
	Sources     []Source
}

// DefaultParams returns the paper's configuration: a 128×128 grid
// (128 KiB of float64), one hot source, cold boundaries.
func DefaultParams() Params {
	return Params{
		NX: 128, NY: 128,
		Alpha: 1.0, DX: 1.0, DY: 1.0,
		BoundaryTemp: 0,
		InitialTemp:  20,
		Sources: []Source{
			{X0: 56, Y0: 56, X1: 72, Y1: 72, Temp: 1000},
		},
	}
}

// StabilityLimit returns the largest stable FTCS time step for the
// given diffusivity and spacing.
func StabilityLimit(alpha, dx, dy float64) float64 {
	// Rounded squares, so no GOARCH fuses one into the sum.
	return (dx * dx * dy * dy) / (2 * alpha * (float64(dx*dx) + float64(dy*dy)))
}

// Solver advances the heat equation. Distinct solvers may step
// concurrently.
type Solver struct {
	params    Params
	cur, next *field.Grid
	steps     uint64
	rx, ry    float64
}

// NewSolver builds a solver, validating parameters and applying the
// initial condition. It panics on unstable DT, invalid geometry, or a
// non-finite or non-positive parameter, naming the field.
func NewSolver(p Params) *Solver {
	if p.NX < 3 || p.NY < 3 {
		panic(fmt.Sprintf("heat: grid %dx%d too small for a stencil", p.NX, p.NY))
	}
	positive("alpha", p.Alpha)
	positive("dx", p.DX)
	positive("dy", p.DY)
	finite("boundary temp", p.BoundaryTemp)
	finite("initial temp", p.InitialTemp)
	limit := StabilityLimit(p.Alpha, p.DX, p.DY)
	if !(limit > 0) || math.IsInf(limit, 1) {
		panic(fmt.Sprintf("heat: alpha %g, dx %g, dy %g give FTCS stability limit %g", p.Alpha, p.DX, p.DY, limit))
	}
	if p.DT == 0 {
		p.DT = 0.9 * limit
	}
	if !(p.DT > 0) {
		panic(fmt.Sprintf("heat: dt %g must be positive (0 selects the default)", p.DT))
	}
	if p.DT > limit {
		panic(fmt.Sprintf("heat: dt %g exceeds FTCS stability limit %g", p.DT, limit))
	}
	for _, s := range p.Sources {
		if s.X0 < 0 || s.Y0 < 0 || s.X1 > p.NX || s.Y1 > p.NY || s.X0 >= s.X1 || s.Y0 >= s.Y1 {
			panic(fmt.Sprintf("heat: source %+v outside %dx%d grid", s, p.NX, p.NY))
		}
		finite("source temp", s.Temp)
	}
	s := &Solver{params: p, cur: field.New(p.NX, p.NY), next: field.New(p.NX, p.NY)}
	s.rx = p.Alpha * p.DT / (p.DX * p.DX)
	s.ry = p.Alpha * p.DT / (p.DY * p.DY)
	s.cur.Fill(p.InitialTemp)
	s.applyBoundary(s.cur)
	s.applySources(s.cur)
	return s
}

// positive panics unless v is positive and finite.
func positive(name string, v float64) {
	if !(v > 0) || math.IsInf(v, 1) {
		panic(fmt.Sprintf("heat: %s %v must be positive and finite", name, v))
	}
}

// finite panics if v is NaN or infinite.
func finite(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("heat: %s %v must be finite", name, v))
	}
}

// Params returns the solver configuration (DT resolved).
func (s *Solver) Params() Params { return s.params }

// Field returns the current temperature field. Callers must not write
// to it while stepping.
func (s *Solver) Field() *field.Grid { return s.cur }

// Steps returns how many sub-steps have been taken.
func (s *Solver) Steps() uint64 { return s.steps }

// Time returns the simulated physical time.
func (s *Solver) Time() float64 { return float64(s.steps) * s.params.DT }

// CellUpdates returns the interior cell-update count of n steps, the
// work unit the platform model charges for.
func (s *Solver) CellUpdates(n int) uint64 {
	return uint64(n) * uint64(s.params.NX-2) * uint64(s.params.NY-2)
}

// applyBoundary clamps the edge cells to BoundaryTemp.
func (s *Solver) applyBoundary(g *field.Grid) {
	for x := 0; x < g.NX; x++ {
		g.Set(x, 0, s.params.BoundaryTemp)
		g.Set(x, g.NY-1, s.params.BoundaryTemp)
	}
	for y := 0; y < g.NY; y++ {
		g.Set(0, y, s.params.BoundaryTemp)
		g.Set(g.NX-1, y, s.params.BoundaryTemp)
	}
}

func (s *Solver) applySources(g *field.Grid) {
	for _, src := range s.params.Sources {
		for y := src.Y0; y < src.Y1; y++ {
			row := g.Data[y*g.NX:]
			for x := src.X0; x < src.X1; x++ {
				row[x] = src.Temp
			}
		}
	}
}

// Step advances n FTCS sub-steps.
func (s *Solver) Step(n int) {
	for i := 0; i < n; i++ {
		s.stepOnce()
	}
}

func (s *Solver) stepOnce() {
	s.sweep()
	s.cur, s.next = s.next, s.cur
	s.applyBoundary(s.cur)
	s.applySources(s.cur)
	s.steps++
}

// sweep applies the FTCS stencil to every interior row of cur, writing
// next, one sweepRow call per row.
func (s *Solver) sweep() {
	cur, next := s.cur.Data, s.next.Data
	nx := s.params.NX
	for y := 1; y < s.params.NY-1; y++ {
		row := y * nx
		sweepRow(next[row+1:row+nx-1], cur[row:row+nx],
			cur[row-nx+1:row-1], cur[row+nx+1:row+2*nx-1], s.rx, s.ry)
	}
}

// sweepRowPortable is the FTCS stencil over one row: for each of the
// first n = min(len(o), len(c)-2, len(up), len(dn)) cells it sets
//
//	o[k] = c[k+1] + rx*(c[k]-2*c[k+1]+c[k+2]) + ry*(up[k]-2*c[k+1]+dn[k])
//
// left to right, and writes nothing past n. o must not overlap the
// inputs. It is sweepRow on GOARCHes without an assembly kernel, and
// the kernel's reference in the tests.
func sweepRowPortable(o, c, up, dn []float64, rx, ry float64) {
	n := min(len(o), len(c)-2, len(up), len(dn))
	if n <= 0 {
		return
	}
	// Equal-length views: ranging over o bounds every index, so the
	// loop carries no bounds checks.
	o, up, dn = o[:n], up[:n], dn[:n]
	cn := c[2 : 2+n]
	// Roll the center row through registers: the store to o could
	// alias c for all the compiler knows, so without the rolling
	// window it reloads c[k], c[k+1], c[k+2] every cell.
	cl, cc := c[0], c[1]
	for k := range o {
		cr := cn[k]
		// The rounded products keep arm64 from fusing them into the
		// sums, so every GOARCH rounds as amd64 does.
		o[k] = cc +
			float64(rx*(cl-float64(2*cc)+cr)) +
			float64(ry*(up[k]-float64(2*cc)+dn[k]))
		cl, cc = cc, cr
	}
}
