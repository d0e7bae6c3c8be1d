package wattsup

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// setup wires a meter to a recorder-backed profile, the production
// arrangement: samples flow as telemetry events and the recorder folds
// them into the "system" series.
func setup(cfg Config) (*sim.Engine, *power.Domain, *Meter, *trace.Profile) {
	e := sim.NewEngine()
	bus := power.NewBus(e)
	d := bus.NewDomain("package", 104.5)
	prof := trace.NewProfile("t")
	tel := telemetry.NewBus(trace.NewRecorder(prof))
	m := NewMeter(e, bus, tel, cfg, xrand.New(7))
	return e, d, m, prof
}

func TestMeterSamplesAveragePower(t *testing.T) {
	cfg := Config{Period: 1, Quantum: 0, NoiseSigma: 0}
	e, d, m, prof := setup(cfg)
	m.Start()
	e.Advance(3)
	d.SetLevel(143)
	e.Advance(3)
	m.Stop()
	s := prof.SeriesByName(SeriesName)
	if s.Len() != 6 {
		t.Fatalf("samples = %d, want 6", s.Len())
	}
	if math.Abs(s.At(1).V-104.5) > 1e-9 {
		t.Errorf("idle sample = %v", s.At(1).V)
	}
	if math.Abs(s.At(5).V-143) > 1e-9 {
		t.Errorf("busy sample = %v", s.At(5).V)
	}
}

func TestMeterIntervalAverageNotInstantaneous(t *testing.T) {
	cfg := Config{Period: 1, Quantum: 0, NoiseSigma: 0}
	e, d, m, prof := setup(cfg)
	m.Start()
	// Spike to 200 W for half of the first second.
	e.Advance(0.5)
	d.SetLevel(200)
	e.Advance(0.5)
	d.SetLevel(104.5)
	e.Advance(0.0) // sample at t=1 fires during the advance above
	s := prof.SeriesByName(SeriesName)
	if s.Len() != 1 {
		t.Fatalf("samples = %d, want 1", s.Len())
	}
	want := (104.5 + 200) / 2
	if math.Abs(s.At(0).V-want) > 1e-9 {
		t.Errorf("sample = %v, want interval average %v", s.At(0).V, want)
	}
}

func TestMeterQuantization(t *testing.T) {
	cfg := Config{Period: 1, Quantum: 0.1, NoiseSigma: 0}
	e, d, m, prof := setup(cfg)
	d.SetLevel(104.567)
	m.Start()
	e.Advance(2)
	for _, sm := range prof.SeriesByName(SeriesName).Samples() {
		frac := math.Mod(sm.V*10, 1)
		if frac > 1e-9 && frac < 1-1e-9 {
			t.Fatalf("sample %v not quantized to 0.1 W", sm.V)
		}
	}
}

func TestMeterNoiseIsBoundedAndCentered(t *testing.T) {
	cfg := Config{Period: 1, Quantum: 0, NoiseSigma: 0.5}
	e, _, m, prof := setup(cfg)
	m.Start()
	e.Advance(2000)
	st := prof.SeriesByName(SeriesName).Summarize()
	if math.Abs(st.Mean-104.5) > 0.2 {
		t.Errorf("noisy mean = %v, want ~104.5", st.Mean)
	}
	if st.Max-st.Min < 0.5 {
		t.Error("noise produced suspiciously flat readings")
	}
	if st.Max-st.Min > 6 {
		t.Errorf("noise spread %v too wide for sigma 0.5", st.Max-st.Min)
	}
}

func TestMeterStartStopIdempotent(t *testing.T) {
	cfg := Config{Period: 1}
	e, _, m, prof := setup(cfg)
	m.Start()
	m.Start()
	e.Advance(3)
	m.Stop()
	m.Stop()
	e.Advance(3)
	if prof.SeriesByName(SeriesName).Len() != 3 {
		t.Errorf("samples = %d, want 3", prof.SeriesByName(SeriesName).Len())
	}
}

// TestMeterEmitsOnInertBus pins the no-consumer contract: sampling on
// a bus nobody subscribed to must still draw noise (the RNG stream is
// part of the golden contract) and must not panic.
func TestMeterEmitsOnInertBus(t *testing.T) {
	e := sim.NewEngine()
	bus := power.NewBus(e)
	bus.NewDomain("package", 104.5)
	m := NewMeter(e, bus, nil, Config{Period: 1, NoiseSigma: 0.5}, xrand.New(7))
	m.Start()
	e.Advance(10)
	m.Stop()
}

func TestMeterValidation(t *testing.T) {
	e := sim.NewEngine()
	bus := power.NewBus(e)
	defer func() {
		if recover() == nil {
			t.Error("noise without rng did not panic")
		}
	}()
	NewMeter(e, bus, nil, Config{Period: 1, NoiseSigma: 1}, nil)
}
