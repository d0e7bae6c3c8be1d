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
func setup() (*sim.Engine, *power.Domain, *Meter, *trace.Profile) {
	e := sim.NewEngine()
	bus := power.NewBus(e)
	d := bus.NewDomain("package", 104.5)
	prof := trace.NewProfile("t")
	tel := telemetry.NewBus(trace.NewRecorder(prof))
	m := NewMeter(e, bus, tel, xrand.New(7))
	return e, d, m, prof
}

// expectedReadings replays the meter's noise stream, xrand.New(7) as
// setup seeds it, over the true average wall power of each period and
// returns the readings the meter must report: noisy, then quantized.
func expectedReadings(truth ...float64) []float64 {
	rng := xrand.New(7)
	out := make([]float64, len(truth))
	for i, w := range truth {
		w += float64(rng.NormFloat64() * noiseSigma)
		out[i] = float64(int64(w/quantum+0.5)) * quantum
	}
	return out
}

func checkReadings(t *testing.T, s *trace.Series, want []float64) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("samples = %d, want %d", s.Len(), len(want))
	}
	for i, w := range want {
		if got := s.At(i).V; got != w {
			t.Errorf("sample %d = %v, want %v", i, got, w)
		}
	}
}

func TestMeterSamplesAveragePower(t *testing.T) {
	e, d, m, prof := setup()
	m.Start()
	e.Advance(3)
	d.SetLevel(143)
	e.Advance(3)
	m.Stop()
	checkReadings(t, prof.SeriesByName(SeriesName),
		expectedReadings(104.5, 104.5, 104.5, 143, 143, 143))
}

func TestMeterIntervalAverageNotInstantaneous(t *testing.T) {
	e, d, m, prof := setup()
	m.Start()
	// Spike to 200 W for half of the first second.
	e.Advance(0.5)
	d.SetLevel(200)
	e.Advance(0.5)
	d.SetLevel(104.5)
	e.Advance(0.0) // sample at t=1 fires during the advance above
	checkReadings(t, prof.SeriesByName(SeriesName), expectedReadings((104.5+200)/2))
}

func TestMeterQuantization(t *testing.T) {
	e, d, m, prof := setup()
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
	e, _, m, prof := setup()
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
	e, _, m, prof := setup()
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
	m := NewMeter(e, bus, nil, xrand.New(7))
	m.Start()
	e.Advance(10)
	m.Stop()
}
