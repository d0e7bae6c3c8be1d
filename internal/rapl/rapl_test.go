package rapl

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// monitorProfile pairs a telemetry bus with a recorder-backed profile,
// the production arrangement for reading a monitor's series.
func monitorProfile() (*telemetry.Bus, *trace.Profile) {
	prof := trace.NewProfile("t")
	return telemetry.NewBus(trace.NewRecorder(prof)), prof
}

func TestCounterDeltaSimple(t *testing.T) {
	if got := CounterDelta(1000, 66536); math.Abs(float64(got)-65536*EnergyUnit) > 1e-9 {
		t.Errorf("delta = %v, want 1 J worth", got)
	}
}

func TestCounterDeltaWraparound(t *testing.T) {
	prev := uint32(0xFFFFFF00)
	cur := uint32(0x00000100)
	want := float64(0x200) * EnergyUnit
	if got := CounterDelta(prev, cur); math.Abs(float64(got)-want) > 1e-12 {
		t.Errorf("wrap delta = %v, want %v", got, want)
	}
}

func TestReadEnergyStatusTracksDomain(t *testing.T) {
	e := sim.NewEngine()
	d := power.NewDomain(e, "package", 100)
	msr := NewMSR(map[Domain]EnergySource{PKG: func() units.Joules { return d.Energy() }})
	e.Advance(10) // 1000 J
	c, err := msr.ReadEnergyStatus(PKG)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(uint64(1000 / EnergyUnit))
	if c != want {
		t.Errorf("counter = %d, want %d", c, want)
	}
}

func TestReadUnsupportedDomain(t *testing.T) {
	msr := NewMSR(map[Domain]EnergySource{PKG: func() units.Joules { return 0 }})
	if _, err := msr.ReadEnergyStatus(DRAM); err == nil {
		t.Error("unsupported domain read did not error")
	}
}

func TestCounterWrapsAt32Bits(t *testing.T) {
	// 2^32 units = 65536 J; feed slightly more and expect a wrapped value.
	total := units.Joules(65536 + 1)
	msr := NewMSR(map[Domain]EnergySource{PKG: func() units.Joules { return total }})
	c, _ := msr.ReadEnergyStatus(PKG)
	if c != uint32(1/EnergyUnit) {
		t.Errorf("wrapped counter = %d, want %d", c, uint32(1/EnergyUnit))
	}
}

func TestMonitorRecordsAveragePower(t *testing.T) {
	e := sim.NewEngine()
	bus := power.NewBus(e)
	pkg := bus.NewDomain("package", 42)
	bus.NewDomain("dram", 10)
	msr := NewMSR(Sources(bus))
	tel, prof := monitorProfile()
	mon := NewMonitor(e, msr, tel, nil) // no overhead: power stays exact
	mon.Start()
	e.Advance(5)
	pkg.SetLevel(72)
	e.Advance(5)
	mon.Stop()

	s := prof.SeriesByName(SourceName(PKG))
	if s.Len() != 10 {
		t.Fatalf("PKG samples = %d, want 10", s.Len())
	}
	early := s.At(2).V
	late := s.At(8).V
	if math.Abs(early-42) > 0.01 || math.Abs(late-72) > 0.01 {
		t.Errorf("PKG power early/late = %v/%v, want 42/72", early, late)
	}
	d := prof.SeriesByName(SourceName(DRAM))
	if math.Abs(d.At(3).V-10) > 0.01 {
		t.Errorf("DRAM power = %v, want 10", d.At(3).V)
	}
}

func TestMonitorOverheadAppliedAndRemoved(t *testing.T) {
	e := sim.NewEngine()
	bus := power.NewBus(e)
	pkg := bus.NewDomain("package", 42)
	bus.NewDomain("dram", 10)
	msr := NewMSR(Sources(bus))
	mon := NewMonitor(e, msr, nil, pkg)
	mon.Start()
	if math.Abs(float64(pkg.Level())-42.2) > 1e-9 {
		t.Errorf("package with monitor = %v, want 42.2", pkg.Level())
	}
	// The CPU model sets the package level absolutely on every load
	// change; the overhead must outlive that.
	pkg.SetLevel(50)
	if math.Abs(float64(pkg.Level())-50.2) > 1e-9 {
		t.Errorf("package after SetLevel(50) with monitor = %v, want 50.2", pkg.Level())
	}
	mon.Stop()
	if math.Abs(float64(pkg.Level())-50) > 1e-9 {
		t.Errorf("package after stop = %v, want 50", pkg.Level())
	}
	mon.Stop() // idempotent
}

func TestMonitorLongRunSurvivesCounterWrap(t *testing.T) {
	// At 150 W the 32-bit counter wraps every ~437 s; run 1200 s and
	// check no sample goes wild.
	e := sim.NewEngine()
	bus := power.NewBus(e)
	bus.NewDomain("package", 150)
	bus.NewDomain("dram", 10)
	msr := NewMSR(Sources(bus))
	tel, prof := monitorProfile()
	mon := NewMonitor(e, msr, tel, nil)
	mon.Start()
	e.Advance(1200)
	mon.Stop()
	for _, s := range prof.SeriesByName(SourceName(PKG)).Samples() {
		if math.Abs(s.V-150) > 0.01 {
			t.Fatalf("sample at %v = %v, want 150 (wraparound mishandled)", s.T, s.V)
		}
	}
}
