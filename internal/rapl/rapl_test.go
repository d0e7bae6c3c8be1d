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

// testBus returns a bus with the package and dram domains an MSR reads,
// at the given levels.
func testBus(e *sim.Engine, pkgW, dramW units.Watts) (bus *power.Bus, pkg, dram *power.Domain) {
	bus = power.NewBus(e)
	return bus, bus.NewDomain("package", pkgW), bus.NewDomain("dram", dramW)
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
	bus, _, _ := testBus(e, 100, 10)
	msr := NewMSR(bus)
	e.Advance(10) // 1000 J package, 100 J dram
	for _, c := range []struct {
		d     Domain
		joule float64
	}{{PKG, 1000}, {DRAM, 100}} {
		want := uint32(uint64(c.joule / EnergyUnit))
		if got := msr.ReadEnergyStatus(c.d); got != want {
			t.Errorf("%v counter = %d, want %d", c.d, got, want)
		}
	}
}

func TestCounterWrapsAt32Bits(t *testing.T) {
	// 2^32 units = 65536 J; run the package 1 J past that and expect a
	// wrapped value.
	e := sim.NewEngine()
	bus, _, _ := testBus(e, 65537, 10)
	msr := NewMSR(bus)
	e.Advance(1)
	if c := msr.ReadEnergyStatus(PKG); c != uint32(1/EnergyUnit) {
		t.Errorf("wrapped counter = %d, want %d", c, uint32(1/EnergyUnit))
	}
}

func TestMSRNeedsPackageAndDRAM(t *testing.T) {
	bus := power.NewBus(sim.NewEngine())
	bus.NewDomain("package", 42)
	defer func() {
		if recover() == nil {
			t.Error("MSR over a bus without a dram domain did not panic")
		}
	}()
	NewMSR(bus)
}

func TestMonitorRecordsAveragePower(t *testing.T) {
	e := sim.NewEngine()
	bus, pkg, _ := testBus(e, 42, 10)
	tel, prof := monitorProfile()
	mon := NewMonitor(e, NewMSR(bus), tel)
	mon.Start()
	e.Advance(5)
	pkg.SetLevel(72)
	e.Advance(5)
	mon.Stop()

	// The package reads its level plus the monitor's own overhead.
	s := prof.SeriesByName(SourceName(PKG))
	if s.Len() != 10 {
		t.Fatalf("PKG samples = %d, want 10", s.Len())
	}
	early := s.At(2).V
	late := s.At(8).V
	if math.Abs(early-42.2) > 0.01 || math.Abs(late-72.2) > 0.01 {
		t.Errorf("PKG power early/late = %v/%v, want 42.2/72.2", early, late)
	}
	d := prof.SeriesByName(SourceName(DRAM))
	if math.Abs(d.At(3).V-10) > 0.01 {
		t.Errorf("DRAM power = %v, want 10", d.At(3).V)
	}
}

func TestMonitorOverheadAppliedAndRemoved(t *testing.T) {
	e := sim.NewEngine()
	bus, pkg, _ := testBus(e, 42, 10)
	mon := NewMonitor(e, NewMSR(bus), nil)
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
	bus, _, _ := testBus(e, 150, 10)
	tel, prof := monitorProfile()
	mon := NewMonitor(e, NewMSR(bus), tel)
	mon.Start()
	e.Advance(1200)
	mon.Stop()
	for _, s := range prof.SeriesByName(SourceName(PKG)).Samples() {
		if math.Abs(s.V-150.2) > 0.01 { // with the monitor's overhead
			t.Fatalf("sample at %v = %v, want 150.2 (wraparound mishandled)", s.T, s.V)
		}
	}
}
