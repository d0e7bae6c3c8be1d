// Package wattsup emulates the external Wattsup Pro wall meter of the
// paper's measurement setup: a 1 Hz sampler of full-system power with
// 0.1 W resolution and ±0.5 W of measurement noise, logged by a
// separate monitoring host (so it adds no load to the system under
// test). Readings are emitted as telemetry energy-sample events; a
// trace.Recorder (or any other consumer) turns them into a series.
package wattsup

import (
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/xrand"
)

// SeriesName is the telemetry source the meter samples under.
const SeriesName = "system"

// The paper's meter: one reading per period, quantum resolution in
// watts, and normally distributed noise of standard deviation
// noiseSigma watts on every reading.
const (
	period     units.Seconds = 1
	quantum                  = 0.1
	noiseSigma               = 0.5
)

// Meter samples a power bus into telemetry events. Each reading is the
// true average wall power over the elapsed period (the meter integrates
// internally), plus noise, quantized.
type Meter struct {
	bus     *power.Bus
	rng     *xrand.Rand
	tel     *telemetry.Bus
	ticker  *sim.Ticker
	prevE   units.Joules
	running bool
}

// NewMeter attaches a meter to bus, emitting readings into tel under
// the source SeriesName (the series is defined on construction, so
// recorders attached before this call materialize it even if no sample
// ever fires). rng draws the noise.
func NewMeter(engine *sim.Engine, bus *power.Bus, tel *telemetry.Bus, rng *xrand.Rand) *Meter {
	if tel == nil {
		tel = telemetry.NewBus()
	}
	m := &Meter{bus: bus, rng: rng, tel: tel}
	tel.Emit(telemetry.Event{Kind: telemetry.KindSeriesDefine, Source: SeriesName, Unit: "W"})
	m.ticker = sim.NewTicker(engine, period, m.sample)
	return m
}

// Start begins sampling.
func (m *Meter) Start() {
	if m.running {
		return
	}
	m.running = true
	m.prevE = m.bus.SystemEnergy()
	m.ticker.Start()
}

// Stop halts sampling.
func (m *Meter) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.ticker.Stop()
}

func (m *Meter) sample(now sim.Time) {
	cur := m.bus.SystemEnergy()
	w := float64(cur-m.prevE) / float64(period)
	m.prevE = cur
	// The product is rounded, so no GOARCH fuses it into the sum.
	w += float64(m.rng.NormFloat64() * noiseSigma)
	w = float64(int64(w/quantum+0.5)) * quantum
	if w < 0 {
		w = 0
	}
	m.tel.Emit(telemetry.Event{
		Kind:   telemetry.KindEnergySample,
		Source: SeriesName,
		At:     now,
		Value:  w,
	})
}
