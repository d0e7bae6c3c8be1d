package ocean

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func smallParams() Params {
	return Params{
		NX: 48, NY: 48,
		Depth: 100, Gravity: 9.81,
		DX: 1000, DY: 1000,
		Drops: []Drop{{CX: 24, CY: 24, Amplitude: 1.5, Sigma: 4}},
	}
}

func TestCFLLimit(t *testing.T) {
	p := smallParams()
	want := 1000 / (math.Sqrt(9.81*100) * math.Sqrt2)
	if got := CFLLimit(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("CFLLimit = %v, want %v", got, want)
	}
}

// validationRow is one rejected parameter: smallParams edited by edit
// must make NewSolver panic with a message naming field.
type validationRow struct {
	name, field string
	edit        func(*Params)
}

// mustPanicNaming fails unless NewSolver panics on every row as the
// row says.
func mustPanicNaming(t *testing.T, rows []validationRow) {
	t.Helper()
	for _, tc := range rows {
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
}

func TestUnstableDTPanics(t *testing.T) {
	mustPanicNaming(t, []validationRow{
		{"dt above CFL", "dt", func(p *Params) { p.DT = CFLLimit(*p) * 1.1 }},
		{"negative dt", "dt", func(p *Params) { p.DT = -1 }},
		{"NaN dt", "dt", func(p *Params) { p.DT = math.NaN() }},
		{"infinite dt", "dt", func(p *Params) { p.DT = math.Inf(1) }},
	})
}

func TestInitialDropApplied(t *testing.T) {
	s := NewSolver(smallParams())
	if s.Field().At(24, 24) < 1.4 {
		t.Errorf("drop center = %v, want ~1.5", s.Field().At(24, 24))
	}
	if math.Abs(s.Field().At(2, 2)) > 1e-6 {
		t.Errorf("far corner = %v, want ~0", s.Field().At(2, 2))
	}
}

func TestWavePropagatesOutward(t *testing.T) {
	s := NewSolver(smallParams())
	probe := func() float64 { return math.Abs(s.Field().At(40, 24)) }
	before := probe()
	// Wave speed ~31 m/s; 16 km to the probe needs ~512 s ≈ 51 steps at
	// dt≈10 s.
	s.Step(80)
	if probe() <= before+1e-6 {
		t.Errorf("wave did not reach probe: %v -> %v", before, probe())
	}
}

func TestVolumeConserved(t *testing.T) {
	s := NewSolver(smallParams())
	v0 := s.TotalVolume()
	s.Step(500)
	v1 := s.TotalVolume()
	if math.Abs(v1-v0) > 1e-6*math.Abs(v0)+1e-3 {
		t.Errorf("volume drifted: %v -> %v", v0, v1)
	}
}

func TestEnergyBounded(t *testing.T) {
	// The forward-backward scheme is stable but not energy-conserving:
	// total energy oscillates as potential and kinetic forms exchange
	// against the reflective walls. It must stay bounded — a blow-up is
	// the signature of the unstable naive update.
	s := NewSolver(smallParams())
	e0 := s.Energy()
	for i := 0; i < 20; i++ {
		s.Step(100)
		e := s.Energy()
		if e > 1.5*e0 || e < 0.3*e0 {
			t.Fatalf("energy left its band: %v -> %v after %d steps", e0, e, s.Steps())
		}
	}
}

func TestSolverStaysFinite(t *testing.T) {
	s := NewSolver(smallParams())
	s.Step(2000)
	lo, hi := s.Field().MinMax()
	if math.IsNaN(lo) || math.IsInf(hi, 0) {
		t.Fatalf("field went non-finite: [%v, %v]", lo, hi)
	}
	if math.Abs(lo) > 100 || math.Abs(hi) > 100 {
		t.Errorf("field implausibly large: [%v, %v]", lo, hi)
	}
}

func TestCenteredDropStaysSymmetric(t *testing.T) {
	p := Params{
		NX: 33, NY: 33, Depth: 50, Gravity: 9.81, DX: 500, DY: 500,
		Drops: []Drop{{CX: 16, CY: 16, Amplitude: 1, Sigma: 3}},
	}
	s := NewSolver(p)
	s.Step(150)
	g := s.Field()
	for y := 0; y < 33; y++ {
		for x := 0; x < 33; x++ {
			if math.Abs(g.At(x, y)-g.At(32-x, y)) > 1e-9 {
				t.Fatalf("x-mirror broken at (%d,%d)", x, y)
			}
			if math.Abs(g.At(x, y)-g.At(x, 32-y)) > 1e-9 {
				t.Fatalf("y-mirror broken at (%d,%d)", x, y)
			}
		}
	}
}

func TestCoriolisDeflectsFlow(t *testing.T) {
	p := smallParams()
	base := NewSolver(p)
	p.Coriolis = 1e-4
	rot := NewSolver(p)
	base.Step(200)
	rot.Step(200)
	// With rotation on, the fields must differ measurably.
	var diff float64
	for i := range base.Field().Data {
		diff += math.Abs(base.Field().Data[i] - rot.Field().Data[i])
	}
	if diff < 1e-6 {
		t.Error("Coriolis term had no effect")
	}
}

func TestCellUpdates(t *testing.T) {
	s := NewSolver(smallParams())
	if got := s.CellUpdates(10); got != 10*46*46*3 {
		t.Errorf("CellUpdates = %d, want %d", got, 10*46*46*3)
	}
}

// TestValidation covers the non-finite and non-positive parameters
// NewSolver rejects, so no NaN field ever reaches the renderer.
func TestValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mustPanicNaming(t, []validationRow{
		{"negative depth", "depth", func(p *Params) { p.Depth = -1 }},
		{"NaN depth", "depth", func(p *Params) { p.Depth = nan }},
		{"infinite gravity", "gravity", func(p *Params) { p.Gravity = inf }},
		{"zero dx", "dx", func(p *Params) { p.DX = 0 }},
		{"NaN dy", "dy", func(p *Params) { p.DY = nan }},
		{"overflowing depth", "CFL limit", func(p *Params) { p.Depth, p.Gravity = 1e200, 1e200 }},
		{"NaN coriolis", "coriolis", func(p *Params) { p.Coriolis = nan }},
		{"NaN drop amplitude", "drop amplitude", func(p *Params) { p.Drops[0].Amplitude = nan }},
		{"infinite drop amplitude", "drop amplitude", func(p *Params) { p.Drops[0].Amplitude = -inf }},
		{"zero drop sigma", "drop sigma", func(p *Params) { p.Drops[0].Sigma = 0 }},
		{"NaN drop sigma", "drop sigma", func(p *Params) { p.Drops[0].Sigma = nan }},
		{"tiny drop sigma", "drop sigma", func(p *Params) { p.Drops[0].Sigma = 1e-200 }},
	})
	NewSolver(DefaultParams())
	NewSolver(smallParams())
}

func BenchmarkStep128(b *testing.B) {
	s := NewSolver(DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1)
	}
}
