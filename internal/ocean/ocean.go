// Package ocean is a second proxy application — a 2-D shallow-water
// solver in the spirit of the ocean models the paper's Future Work
// targets (MPAS-Ocean [32], visualized in-situ by Ahrens et al. [12]).
// The paper's own limitations section notes its findings rest on a
// single proxy app; this solver lets the pipelines be evaluated on a
// second, wave-dominated workload.
//
// The scheme is the classic collocated explicit shallow-water update
// (linearized gravity waves plus advection-free momentum, with Coriolis
// optional) under a CFL-checked time step.
package ocean

import (
	"fmt"
	"math"

	"repro/internal/field"
)

// Params configures the solver.
type Params struct {
	NX, NY int
	// Depth is the resting water depth (m); Gravity in m/s².
	Depth, Gravity float64
	// DX, DY are cell sizes (m); DT the time step (0 = 45 % of CFL).
	DX, DY, DT float64
	// Coriolis is the f-plane parameter (1/s); 0 disables rotation.
	Coriolis float64
	// Drops are initial Gaussian height perturbations.
	Drops []Drop
}

// Drop is a Gaussian bump in the initial height field.
type Drop struct {
	CX, CY    int
	Amplitude float64
	Sigma     float64
}

// DefaultParams returns a 128×128 basin with two interfering drops —
// the same field footprint as the heat proxy (128 KiB).
func DefaultParams() Params {
	return Params{
		NX: 128, NY: 128,
		Depth: 100, Gravity: 9.81,
		DX: 1000, DY: 1000,
		Drops: []Drop{
			{CX: 40, CY: 40, Amplitude: 2.0, Sigma: 6},
			{CX: 90, CY: 80, Amplitude: -1.5, Sigma: 9},
		},
	}
}

// CFLLimit returns the maximum stable time step for the gravity-wave
// speed sqrt(g·H).
func CFLLimit(p Params) float64 {
	c := math.Sqrt(p.Gravity * p.Depth)
	h := math.Min(p.DX, p.DY)
	return h / (c * math.Sqrt2)
}

// Solver advances the shallow-water equations. Distinct solvers may
// step concurrently.
type Solver struct {
	params     Params
	h, u, v    *field.Grid // height anomaly and velocities
	nh, nu, nv *field.Grid
	steps      uint64
}

// NewSolver validates parameters and applies the initial condition.
func NewSolver(p Params) *Solver {
	if p.NX < 3 || p.NY < 3 {
		panic(fmt.Sprintf("ocean: grid %dx%d too small", p.NX, p.NY))
	}
	positive("depth", p.Depth)
	positive("gravity", p.Gravity)
	positive("dx", p.DX)
	positive("dy", p.DY)
	finite("coriolis", p.Coriolis)
	for _, d := range p.Drops {
		finite("drop amplitude", d.Amplitude)
		positive("drop sigma", d.Sigma)
		// A sigma so small that 1/(2σ²) overflows puts NaN at the centre.
		if math.IsInf(1/(2*d.Sigma*d.Sigma), 1) {
			panic(fmt.Sprintf("ocean: drop sigma %g too small", d.Sigma))
		}
	}
	limit := CFLLimit(p)
	if !(limit > 0) || math.IsInf(limit, 1) {
		panic(fmt.Sprintf("ocean: depth %g, gravity %g, dx %g, dy %g give CFL limit %g", p.Depth, p.Gravity, p.DX, p.DY, limit))
	}
	if p.DT == 0 {
		p.DT = 0.45 * limit
	}
	if !(p.DT > 0) {
		panic(fmt.Sprintf("ocean: dt %g must be positive (0 selects the default)", p.DT))
	}
	if p.DT > limit {
		panic(fmt.Sprintf("ocean: dt %g exceeds CFL limit %g", p.DT, limit))
	}
	s := &Solver{
		params: p,
		h:      field.New(p.NX, p.NY), u: field.New(p.NX, p.NY), v: field.New(p.NX, p.NY),
		nh: field.New(p.NX, p.NY), nu: field.New(p.NX, p.NY), nv: field.New(p.NX, p.NY),
	}
	for _, d := range p.Drops {
		s.applyDrop(d)
	}
	return s
}

func (s *Solver) applyDrop(d Drop) {
	inv := 1 / (2 * d.Sigma * d.Sigma)
	for y := 0; y < s.params.NY; y++ {
		for x := 0; x < s.params.NX; x++ {
			dx, dy := float64(x-d.CX), float64(y-d.CY)
			// Rounded products, so no GOARCH fuses one into a sum.
			s.h.Data[y*s.params.NX+x] += float64(d.Amplitude * math.Exp(-(float64(dx*dx)+float64(dy*dy))*inv))
		}
	}
}

// positive panics unless v is positive and finite.
func positive(name string, v float64) {
	if !(v > 0) || math.IsInf(v, 1) {
		panic(fmt.Sprintf("ocean: %s %v must be positive and finite", name, v))
	}
}

// finite panics if v is NaN or infinite.
func finite(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("ocean: %s %v must be finite", name, v))
	}
}

// Params returns the configuration (DT resolved).
func (s *Solver) Params() Params { return s.params }

// Field returns the height-anomaly field (the visualized quantity).
func (s *Solver) Field() *field.Grid { return s.h }

// Steps returns the sub-steps taken.
func (s *Solver) Steps() uint64 { return s.steps }

// Time returns the simulated physical time in seconds.
func (s *Solver) Time() float64 { return float64(s.steps) * s.params.DT }

// CellUpdates returns the work of n steps: three field updates per
// interior cell.
func (s *Solver) CellUpdates(n int) uint64 {
	return uint64(n) * uint64(s.params.NX-2) * uint64(s.params.NY-2) * 3
}

// TotalVolume returns the integral of the height anomaly over the
// interior cells (ghost/boundary cells excluded) — an exact invariant
// of the scheme thanks to the mirrored wall velocities.
func (s *Solver) TotalVolume() float64 {
	var sum float64
	nx := s.params.NX
	for y := 1; y < s.params.NY-1; y++ {
		row := s.h.Data[y*nx : (y+1)*nx]
		for x := 1; x < nx-1; x++ {
			sum += row[x]
		}
	}
	return sum * s.params.DX * s.params.DY
}

// Energy returns the discrete total energy: potential ½g·h² plus
// kinetic ½H·(u²+v²), integrated over the basin.
func (s *Solver) Energy() float64 {
	p := s.params
	var e float64
	for i := range s.h.Data {
		hh := s.h.Data[i]
		uu := s.u.Data[i]
		vv := s.v.Data[i]
		// Rounded products, so no GOARCH fuses one into a sum.
		e += float64(0.5*p.Gravity*hh*hh) + float64(0.5*p.Depth*(float64(uu*uu)+float64(vv*vv)))
	}
	return e * p.DX * p.DY
}

// Step advances n sub-steps.
func (s *Solver) Step(n int) {
	for i := 0; i < n; i++ {
		s.stepOnce()
	}
}

func (s *Solver) stepOnce() {
	// Forward-backward (symplectic Euler) scheme: update momentum from
	// the old height, then update height from the *new* momentum. The
	// naive simultaneous update is unconditionally unstable for wave
	// systems; this variant is stable under the CFL limit.

	// Pass 1: momentum from the height gradient (+ Coriolis).
	s.momentumPass()
	s.u, s.nu = s.nu, s.u
	s.v, s.nv = s.nv, s.v
	s.reflectVelocityBoundaries()

	// Pass 2: continuity from the divergence of the new momentum.
	s.continuityPass()
	s.h, s.nh = s.nh, s.h
	s.reflectHeightBoundaries()
	s.steps++
}

// Both passes hand every interior row to a row function: momentumRow
// and continuityRow, SSE2 kernels on amd64 (stencil_amd64.s) and the
// portable loops below elsewhere, which round alike.

// momentumPass writes nu, nv from the height gradient of h (+ Coriolis).
func (s *Solver) momentumPass() {
	p := s.params
	nx := p.NX
	gdtx := p.Gravity * p.DT / p.DX
	gdty := p.Gravity * p.DT / p.DY
	f := p.Coriolis * p.DT
	h, u, v := s.h.Data, s.u.Data, s.v.Data
	for y := 1; y < p.NY-1; y++ {
		row := y * nx
		in := row + 1 // the row's first interior cell
		momentumRow(s.nu.Data[in:row+nx-1], s.nv.Data[in:row+nx-1],
			h[row:row+nx], h[in-nx:row-1], h[in+nx:row+2*nx-1],
			u[in:row+nx-1], v[in:row+nx-1], gdtx, gdty, f)
	}
}

// continuityPass writes nh from the divergence of u, v.
func (s *Solver) continuityPass() {
	p := s.params
	nx := p.NX
	hdtx := p.Depth * p.DT / p.DX
	hdty := p.Depth * p.DT / p.DY
	h, u, v := s.h.Data, s.u.Data, s.v.Data
	for y := 1; y < p.NY-1; y++ {
		row := y * nx
		in := row + 1
		continuityRow(s.nh.Data[in:row+nx-1], h[in:row+nx-1], u[row:row+nx],
			v[in-nx:row-1], v[in+nx:row+2*nx-1], hdtx, hdty)
	}
}

// momentumRowPortable is the momentum update over one row: for each of
// the first n = min(len(nu), len(nv), len(h)-2, len(hup), len(hdn),
// len(u), len(v)) cells it sets
//
//	nu[k] = u[k] - gdtx*(h[k+2]-h[k])/2 + f*v[k]
//	nv[k] = v[k] - gdty*(hdn[k]-hup[k])/2 - f*u[k]
//
// left to right, and writes nothing past n. nu and nv must not overlap
// the inputs. It is momentumRow on GOARCHes without an assembly
// kernel, and the kernel's reference in the tests.
func momentumRowPortable(nu, nv, h, hup, hdn, u, v []float64, gdtx, gdty, f float64) {
	n := min(len(nu), len(nv), len(h)-2, len(hup), len(hdn), len(u), len(v))
	if n <= 0 {
		return
	}
	// Equal-length views: ranging over nu bounds every index, so the
	// loop carries no bounds checks.
	nu, nv, hup, hdn, u, v = nu[:n], nv[:n], hup[:n], hdn[:n], u[:n], v[:n]
	hn := h[2 : 2+n]
	// Roll the gradient row through registers: the stores could alias
	// h for all the compiler knows, so without the rolling window it
	// reloads both neighbors every cell.
	hl, hc := h[0], h[1]
	for k := range nu {
		hr := hn[k]
		ux, vx := u[k], v[k]
		// The rounded products keep arm64 from fusing them into the
		// sums, so every GOARCH rounds as amd64 does.
		nu[k] = ux - float64(gdtx*(hr-hl)/2) + float64(f*vx)
		nv[k] = vx - float64(gdty*(hdn[k]-hup[k])/2) - float64(f*ux)
		hl, hc = hc, hr
	}
}

// continuityRowPortable is the continuity update over one row: for
// each of the first n = min(len(nh), len(h), len(u)-2, len(vup),
// len(vdn)) cells it sets
//
//	nh[k] = h[k] - hdtx*(u[k+2]-u[k])/2 - hdty*(vdn[k]-vup[k])/2
//
// left to right, and writes nothing past n. nh must not overlap the
// inputs. It is continuityRow on GOARCHes without an assembly kernel,
// and the kernel's reference in the tests.
func continuityRowPortable(nh, h, u, vup, vdn []float64, hdtx, hdty float64) {
	n := min(len(nh), len(h), len(u)-2, len(vup), len(vdn))
	if n <= 0 {
		return
	}
	nh, h, vup, vdn = nh[:n], h[:n], vup[:n], vdn[:n]
	un := u[2 : 2+n]
	ul, uc := u[0], u[1]
	for k := range nh {
		ur := un[k]
		nh[k] = h[k] -
			float64(hdtx*(ur-ul)/2) -
			float64(hdty*(vdn[k]-vup[k])/2)
		ul, uc = uc, ur
	}
}

// reflectVelocityBoundaries implements closed basin walls by mirroring
// the normal velocity (u(wall) = -u(adjacent)), which makes the
// wall-face flux (u₀+u₁)/2 exactly zero and the interior volume an
// exact invariant of the centered divergence; tangential velocity is
// zero-gradient.
func (s *Solver) reflectVelocityBoundaries() {
	nx, ny := s.params.NX, s.params.NY
	for x := 0; x < nx; x++ {
		s.v.Set(x, 0, -s.v.At(x, 1))
		s.v.Set(x, ny-1, -s.v.At(x, ny-2))
		s.u.Set(x, 0, s.u.At(x, 1))
		s.u.Set(x, ny-1, s.u.At(x, ny-2))
	}
	for y := 0; y < ny; y++ {
		s.u.Set(0, y, -s.u.At(1, y))
		s.u.Set(nx-1, y, -s.u.At(nx-2, y))
		s.v.Set(0, y, s.v.At(1, y))
		s.v.Set(nx-1, y, s.v.At(nx-2, y))
	}
}

// reflectHeightBoundaries applies zero-gradient height at the walls.
func (s *Solver) reflectHeightBoundaries() {
	nx, ny := s.params.NX, s.params.NY
	for x := 0; x < nx; x++ {
		s.h.Set(x, 0, s.h.At(x, 1))
		s.h.Set(x, ny-1, s.h.At(x, ny-2))
	}
	for y := 0; y < ny; y++ {
		s.h.Set(0, y, s.h.At(1, y))
		s.h.Set(nx-1, y, s.h.At(nx-2, y))
	}
}
