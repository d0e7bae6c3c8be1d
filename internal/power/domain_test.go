package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDomainIntegratesConstantLevel(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "disk", 5)
	e.Advance(100)
	if got := d.Energy(); !almostEqual(float64(got), 500, 1e-9) {
		t.Errorf("Energy = %v, want 500 J", got)
	}
}

func TestDomainIntegratesPiecewise(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "pkg", 42)
	e.Advance(10) // 420 J
	d.SetLevel(72)
	e.Advance(5) // 360 J
	d.SetLevel(42)
	e.Advance(10) // 420 J
	if got := d.Energy(); !almostEqual(float64(got), 1200, 1e-9) {
		t.Errorf("Energy = %v, want 1200 J", got)
	}
}

func TestDomainPeak(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "pkg", 40)
	d.SetLevel(90)
	d.SetLevel(60)
	if d.Peak() != 90 {
		t.Errorf("Peak = %v, want 90", d.Peak())
	}
}

func TestDomainAveragePower(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "pkg", 100)
	e.Advance(10)
	d.SetLevel(200)
	e.Advance(10)
	if got := d.AveragePower(); !almostEqual(float64(got), 150, 1e-9) {
		t.Errorf("AveragePower = %v, want 150", got)
	}
}

func TestDomainAdd(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "disk", 5)
	d.Add(8.5)
	if got := d.Level(); !almostEqual(float64(got), 13.5, 1e-9) {
		t.Errorf("Level after Add = %v, want 13.5", got)
	}
	// The added contribution survives the model setting a new level.
	d.SetLevel(20)
	if got := d.Level(); !almostEqual(float64(got), 28.5, 1e-9) {
		t.Errorf("Level after SetLevel(20) = %v, want 28.5", got)
	}
	if got := d.Peak(); !almostEqual(float64(got), 28.5, 1e-9) {
		t.Errorf("Peak = %v, want 28.5", got)
	}
	d.Add(-8.5)
	if got := d.Level(); !almostEqual(float64(got), 20, 1e-9) {
		t.Errorf("Level after -Add = %v, want 20", got)
	}
	d.SetLevel(5)
	if got := d.Level(); !almostEqual(float64(got), 5, 1e-9) {
		t.Errorf("Level after SetLevel(5) = %v, want 5", got)
	}
}

func TestDomainNegativeLevelPanics(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("SetLevel(-1) did not panic")
		}
	}()
	d.SetLevel(-1)
}

func TestDomainSetLevelMidEventIsExact(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "pkg", 10)
	e.After(3, func() { d.SetLevel(20) })
	e.Advance(10)
	// 3s at 10 W + 7s at 20 W = 170 J
	if got := d.Energy(); !almostEqual(float64(got), 170, 1e-9) {
		t.Errorf("Energy = %v, want 170 J", got)
	}
}

// Property: energy is additive over any partition of the timeline, and
// equals sum(level_i * dt_i) for random level schedules.
func TestDomainEnergyProperty(t *testing.T) {
	f := func(steps []struct {
		Level uint8
		Dt    uint16
	}) bool {
		e := sim.NewEngine()
		d := NewDomain(e, "p", 0)
		var want float64
		for _, s := range steps {
			lvl := float64(s.Level)
			dt := float64(s.Dt) / 100
			d.SetLevel(units.Watts(lvl))
			e.Advance(units.Seconds(dt))
			want += lvl * dt
		}
		return almostEqual(float64(d.Energy()), want, 1e-6*(1+want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusAggregation(t *testing.T) {
	e := sim.NewEngine()
	b := NewBus(e)
	pkg := b.NewDomain("package", 42)
	dram := b.NewDomain("dram", 10)
	disk := b.NewDomain("disk", 5)
	rest := b.NewDomain("rest", 47.5)
	if got := b.SystemPower(); !almostEqual(float64(got), 104.5, 1e-9) {
		t.Errorf("SystemPower = %v, want 104.5", got)
	}
	e.Advance(2)
	if got := b.SystemEnergy(); !almostEqual(float64(got), 209, 1e-9) {
		t.Errorf("SystemEnergy = %v, want 209", got)
	}
	pkg.SetLevel(72)
	_ = dram
	_ = disk
	_ = rest
	if got := b.SystemPower(); !almostEqual(float64(got), 134.5, 1e-9) {
		t.Errorf("SystemPower after load = %v, want 134.5", got)
	}
}

func TestBusDomainLookup(t *testing.T) {
	e := sim.NewEngine()
	b := NewBus(e)
	b.NewDomain("dram", 10)
	if d := b.Domain("dram"); d == nil || d.Name() != "dram" {
		t.Error("Domain(\"dram\") lookup failed")
	}
	if d := b.Domain("nope"); d != nil {
		t.Error("Domain(\"nope\") returned a domain")
	}
}

func TestCPUModelIdleAndLoad(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "package", 0)
	m := &CPUModel{
		Sockets: 2, CoresPerSocket: 8,
		StaticPerSocket: 21, DynamicPerCore: 1.875,
		NominalGHz: 2.4,
	}
	m.Bind(d)
	if got := d.Level(); !almostEqual(float64(got), 42, 1e-9) {
		t.Errorf("idle package power = %v, want 42", got)
	}
	m.SetLoad(16, IntensityCompute)
	if got := d.Level(); !almostEqual(float64(got), 72, 1e-9) {
		t.Errorf("16-core compute package power = %v, want 72", got)
	}
	m.SetLoad(0, IntensityCompute)
	if got := d.Level(); !almostEqual(float64(got), 42, 1e-9) {
		t.Errorf("back-to-idle package power = %v, want 42", got)
	}
}

func TestCPUModelClampsCores(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "package", 0)
	m := &CPUModel{Sockets: 1, CoresPerSocket: 4, StaticPerSocket: 10, DynamicPerCore: 2, NominalGHz: 2}
	m.Bind(d)
	m.SetLoad(100, IntensityCompute)
	if got := d.Level(); !almostEqual(float64(got), 18, 1e-9) {
		t.Errorf("clamped load power = %v, want 18 (4 cores)", got)
	}
	m.SetLoad(-3, IntensityCompute)
	if got := d.Level(); !almostEqual(float64(got), 10, 1e-9) {
		t.Errorf("negative cores power = %v, want 10", got)
	}
}

func TestCPUModelIntensity(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "package", 0)
	m := &CPUModel{Sockets: 1, CoresPerSocket: 8, StaticPerSocket: 20, DynamicPerCore: 2, NominalGHz: 2.4}
	m.Bind(d)
	m.SetLoad(8, IntensityIO)
	if got := d.Level(); !almostEqual(float64(got), 20+8*2*0.10, 1e-9) {
		t.Errorf("IO-intensity power = %v, want 21.6", got)
	}
}

func TestDRAMModel(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "dram", 0)
	m := &DRAMModel{Static: 10, PerGBs: 0.5}
	m.Bind(d)
	if got := d.Level(); !almostEqual(float64(got), 10, 1e-9) {
		t.Errorf("idle DRAM = %v, want 10", got)
	}
	m.SetBandwidth(12)
	if got := d.Level(); !almostEqual(float64(got), 16, 1e-9) {
		t.Errorf("12 GB/s DRAM = %v, want 16", got)
	}
	m.SetBandwidth(-4)
	if got := d.Level(); !almostEqual(float64(got), 10, 1e-9) {
		t.Errorf("negative bandwidth clamped = %v, want 10", got)
	}
}

func TestRestModelFanRamp(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "rest", 0)
	m := &RestModel{Base: 47.5, FanCoeff: 0.07, FanRef: 57}
	m.Bind(d)
	if got := d.Level(); !almostEqual(float64(got), 47.5, 1e-9) {
		t.Errorf("idle rest = %v, want 47.5", got)
	}
	m.ObserveOtherPower(93) // 36 W above ref -> +2.52 W of fan
	if got := d.Level(); !almostEqual(float64(got), 47.5+0.07*36, 1e-9) {
		t.Errorf("loaded rest = %v, want %v", got, 47.5+0.07*36)
	}
	m.ObserveOtherPower(10) // below ref -> no fan term
	if got := d.Level(); !almostEqual(float64(got), 47.5, 1e-9) {
		t.Errorf("below-ref rest = %v, want 47.5", got)
	}
}

func TestCPUModelPowerCapThrottles(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "package", 0)
	m := &CPUModel{
		Sockets: 2, CoresPerSocket: 8,
		StaticPerSocket: 21, DynamicPerCore: 1.875,
		NominalGHz: 2.4,
		PowerCap:   60, // uncapped full load would be 72 W
	}
	m.Bind(d)
	m.SetLoad(16, IntensityCompute)
	if got := float64(d.Level()); got > 60.001 {
		t.Errorf("capped package power = %v, want <= 60", got)
	}
	if m.SlowdownFactor() <= 1 {
		t.Errorf("SlowdownFactor = %v, want > 1 under the cap", m.SlowdownFactor())
	}
	// Expected frequency: (60-42)/30 = 0.6 -> f = 2.4 * 0.6^(1/3).
	wantGHz := 2.4 * math.Cbrt(0.6)
	if got := m.EffectiveGHz(); math.Abs(got-wantGHz) > 1e-6 {
		t.Errorf("EffectiveGHz = %v, want %v", got, wantGHz)
	}
	// Idle load unthrottles.
	m.SetLoad(0, IntensityCompute)
	if got := m.EffectiveGHz(); got != 2.4 {
		t.Errorf("EffectiveGHz at idle = %v, want the nominal 2.4", got)
	}
	if got := float64(d.Level()); math.Abs(got-42) > 1e-9 {
		t.Errorf("idle power under cap = %v, want 42", got)
	}
}

func TestCPUModelCapBelowStaticFloorsAtMinGHz(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "package", 0)
	m := &CPUModel{
		Sockets: 2, CoresPerSocket: 8,
		StaticPerSocket: 21, DynamicPerCore: 1.875,
		NominalGHz: 2.4,
		PowerCap:   40, // below the 42 W static floor
	}
	m.Bind(d)
	m.SetLoad(16, IntensityCompute)
	if got := m.EffectiveGHz(); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("EffectiveGHz = %v, want the floor NominalGHz/2 = 1.2", got)
	}
	// Power exceeds the impossible cap but sits at the min-frequency level.
	want := 42 + 30*math.Pow(0.5, 3)
	if got := float64(d.Level()); math.Abs(got-want) > 1e-9 {
		t.Errorf("floored power = %v, want %v", got, want)
	}
}

func TestCPUModelUncappedUnchanged(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e, "package", 0)
	m := &CPUModel{Sockets: 2, CoresPerSocket: 8, StaticPerSocket: 21, DynamicPerCore: 1.875, NominalGHz: 2.4}
	m.Bind(d)
	m.SetLoad(16, IntensityCompute)
	if m.EffectiveGHz() != 2.4 || m.SlowdownFactor() != 1 {
		t.Errorf("uncapped model runs at %v GHz, slowdown %v; want 2.4 and 1", m.EffectiveGHz(), m.SlowdownFactor())
	}
	if got := float64(d.Level()); math.Abs(got-72) > 1e-9 {
		t.Errorf("uncapped power = %v, want 72", got)
	}
}

// Property: bus system energy equals the sum of per-domain energies
// under random schedules.
func TestBusEnergyAdditivityProperty(t *testing.T) {
	f := func(levels []uint8) bool {
		e := sim.NewEngine()
		b := NewBus(e)
		d1 := b.NewDomain("a", 1)
		d2 := b.NewDomain("b", 2)
		for i, lv := range levels {
			if i%2 == 0 {
				d1.SetLevel(units.Watts(lv))
			} else {
				d2.SetLevel(units.Watts(lv))
			}
			e.Advance(0.25)
		}
		sum := float64(d1.Energy() + d2.Energy())
		return almostEqual(float64(b.SystemEnergy()), sum, 1e-6*(1+sum))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
