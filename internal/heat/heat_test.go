package heat

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func smallParams() Params {
	return Params{
		NX: 32, NY: 32,
		Alpha: 1, DX: 1, DY: 1,
		BoundaryTemp: 0, InitialTemp: 20,
		Sources: []Source{{X0: 14, Y0: 14, X1: 18, Y1: 18, Temp: 100}},
	}
}

func TestGridAccessors(t *testing.T) {
	g := field.New(4, 3)
	g.Set(2, 1, 7.5)
	if g.At(2, 1) != 7.5 {
		t.Errorf("At(2,1) = %v", g.At(2, 1))
	}
	if g.Bytes() != 4*3*8 {
		t.Errorf("Bytes = %d", g.Bytes())
	}
}

func TestGridCloneIndependent(t *testing.T) {
	g := field.New(3, 3)
	c := g.Clone()
	c.Set(1, 1, 9)
	if g.At(1, 1) != 0 {
		t.Error("clone shares storage")
	}
}

func TestGridMinMaxMean(t *testing.T) {
	g := field.New(3, 3)
	g.Fill(2)
	g.Set(0, 0, -1)
	g.Set(2, 2, 5)
	lo, hi := g.MinMax()
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = %v/%v", lo, hi)
	}
	want := (2*7 - 1 + 5) / 9.0
	if m := g.Mean(); math.Abs(m-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", m, want)
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("field.New(0, 5) did not panic")
		}
	}()
	field.New(0, 5)
}

func TestStabilityLimit(t *testing.T) {
	// alpha=1, dx=dy=1: limit = 1/4.
	if got := StabilityLimit(1, 1, 1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("StabilityLimit = %v, want 0.25", got)
	}
}

// TestUnstableDTPanics covers the non-geometry parameters NewSolver
// rejects: an unstable or non-positive DT, and non-finite or
// non-positive coefficients, temperatures and duty cycles. Each must
// panic with a message naming the field, so no NaN field ever reaches
// the renderer.
func TestUnstableDTPanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name, field string
		edit        func(*Params)
	}{
		{"dt above limit", "dt", func(p *Params) { p.DT = 0.3 }}, // limit 0.25
		{"negative dt", "dt", func(p *Params) { p.DT = -0.2 }},
		{"NaN dt", "dt", func(p *Params) { p.DT = nan }},
		{"infinite dt", "dt", func(p *Params) { p.DT = inf }},
		{"NaN alpha", "alpha", func(p *Params) { p.Alpha = nan }},
		{"infinite alpha", "alpha", func(p *Params) { p.Alpha = inf }},
		{"negative alpha", "alpha", func(p *Params) { p.Alpha = -1 }},
		{"zero dx", "dx", func(p *Params) { p.DX = 0 }},
		{"NaN dy", "dy", func(p *Params) { p.DY = nan }},
		{"overflowing dx", "stability limit", func(p *Params) { p.DX = 1e200 }},
		{"underflowing dy", "stability limit", func(p *Params) { p.DY = 1e-200 }},
		{"infinite initial temp", "initial temp", func(p *Params) { p.InitialTemp = inf }},
		{"NaN boundary temp", "boundary temp", func(p *Params) { p.BoundaryTemp = nan }},
		{"NaN source temp", "source temp", func(p *Params) { p.Sources[0].Temp = nan }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := smallParams()
			tc.edit(&p)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("NewSolver did not panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.field) {
					t.Errorf("panic %q does not name %s", msg, tc.field)
				}
			}()
			NewSolver(p)
		})
	}
	NewSolver(DefaultParams())
	NewSolver(smallParams())
}

func TestSourceOutsideGridPanics(t *testing.T) {
	p := smallParams()
	p.Sources = []Source{{X0: 30, Y0: 30, X1: 40, Y1: 40, Temp: 1}}
	defer func() {
		if recover() == nil {
			t.Error("out-of-grid source did not panic")
		}
	}()
	NewSolver(p)
}

func TestSourceAndBoundaryHeld(t *testing.T) {
	s := NewSolver(smallParams())
	s.Step(50)
	g := s.Field()
	if g.At(15, 15) != 100 {
		t.Errorf("source cell = %v, want 100", g.At(15, 15))
	}
	if g.At(0, 10) != 0 || g.At(10, 0) != 0 || g.At(31, 10) != 0 || g.At(10, 31) != 0 {
		t.Error("boundary not held at 0")
	}
}

func TestHeatDiffusesOutward(t *testing.T) {
	p := smallParams()
	p.InitialTemp = 0
	s := NewSolver(p)
	before := s.Field().At(10, 16) // off-source cell
	s.Step(200)
	after := s.Field().At(10, 16)
	if after <= before {
		t.Errorf("heat did not reach (10,16): %v -> %v", before, after)
	}
	// Closer cells are hotter than farther cells (monotone decay from source).
	near := s.Field().At(12, 16)
	far := s.Field().At(4, 16)
	if near <= far {
		t.Errorf("temperature not decaying with distance: near %v, far %v", near, far)
	}
}

func TestMaximumPrinciple(t *testing.T) {
	// FTCS under the stability limit obeys a discrete maximum principle:
	// values stay within [min(boundary,initial,source), max(...)].
	s := NewSolver(smallParams())
	s.Step(500)
	lo, hi := s.Field().MinMax()
	if lo < 0-1e-9 || hi > 100+1e-9 {
		t.Errorf("field escaped [0,100]: [%v, %v]", lo, hi)
	}
}

func TestConvergesToSteadyState(t *testing.T) {
	s := NewSolver(smallParams())
	s.Step(20000)
	a := s.Field().Clone()
	s.Step(1000)
	b := s.Field()
	var maxDelta float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > maxDelta {
			maxDelta = d
		}
	}
	if maxDelta > 1e-6 {
		t.Errorf("not converged: max delta %v after 20k steps", maxDelta)
	}
}

func TestSymmetryPreserved(t *testing.T) {
	// A centered square source on a square grid must stay 4-fold symmetric.
	p := Params{
		NX: 33, NY: 33, Alpha: 1, DX: 1, DY: 1,
		InitialTemp: 0,
		Sources:     []Source{{X0: 15, Y0: 15, X1: 18, Y1: 18, Temp: 50}},
	}
	s := NewSolver(p)
	s.Step(300)
	g := s.Field()
	for y := 0; y < 33; y++ {
		for x := 0; x < 33; x++ {
			if math.Abs(g.At(x, y)-g.At(32-x, y)) > 1e-9 {
				t.Fatalf("x-mirror broken at (%d,%d)", x, y)
			}
			if math.Abs(g.At(x, y)-g.At(x, 32-y)) > 1e-9 {
				t.Fatalf("y-mirror broken at (%d,%d)", x, y)
			}
			if math.Abs(g.At(x, y)-g.At(y, x)) > 1e-9 {
				t.Fatalf("transpose symmetry broken at (%d,%d)", x, y)
			}
		}
	}
}

func TestCellUpdates(t *testing.T) {
	s := NewSolver(smallParams())
	if got := s.CellUpdates(10); got != 10*30*30 {
		t.Errorf("CellUpdates(10) = %d, want %d", got, 10*30*30)
	}
}

func TestStepsAndTime(t *testing.T) {
	s := NewSolver(smallParams())
	s.Step(7)
	if s.Steps() != 7 {
		t.Errorf("Steps = %d", s.Steps())
	}
	want := 7 * s.Params().DT
	if math.Abs(s.Time()-want) > 1e-12 {
		t.Errorf("Time = %v, want %v", s.Time(), want)
	}
}

// Property: without sources, with uniform initial == boundary temp, the
// field is a fixed point of the solver for any stable dt.
func TestUniformFieldIsFixedPoint(t *testing.T) {
	f := func(temp uint8, dtFrac uint8) bool {
		p := Params{
			NX: 16, NY: 16, Alpha: 1, DX: 1, DY: 1,
			BoundaryTemp: float64(temp), InitialTemp: float64(temp),
			DT: 0.25 * (float64(dtFrac%100) + 1) / 101,
		}
		s := NewSolver(p)
		s.Step(20)
		lo, hi := s.Field().MinMax()
		return math.Abs(lo-float64(temp)) < 1e-12 && math.Abs(hi-float64(temp)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStep128(b *testing.B) {
	p := DefaultParams()
	s := NewSolver(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1)
	}
}
