// Package wattsup emulates the external Wattsup Pro wall meter of the
// paper's measurement setup: a 1 Hz sampler of full-system power with
// coarse quantization and a little measurement noise, logged by a
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

// Config describes the meter.
type Config struct {
	// Period between readings (1 s for the Wattsup Pro).
	Period units.Seconds
	// Quantum is the reading resolution in watts (0.1 W).
	Quantum float64
	// NoiseSigma is the standard deviation of per-reading noise in
	// watts; 0 disables noise.
	NoiseSigma float64
}

// DefaultConfig returns the paper's meter: 1 Hz, 0.1 W resolution,
// ±0.5 W jitter.
func DefaultConfig() Config {
	return Config{Period: 1, Quantum: 0.1, NoiseSigma: 0.5}
}

// Meter samples a power bus into telemetry events. Each reading is the
// true average wall power over the elapsed period (the meter integrates
// internally), plus noise, quantized.
type Meter struct {
	bus     *power.Bus
	cfg     Config
	rng     *xrand.Rand
	tel     *telemetry.Bus
	ticker  *sim.Ticker
	prevE   units.Joules
	running bool
}

// NewMeter attaches a meter to bus, emitting readings into tel under
// the source SeriesName (the series is defined on construction, so
// recorders attached before this call materialize it even if no sample
// ever fires). rng may be nil when NoiseSigma is 0.
func NewMeter(engine *sim.Engine, bus *power.Bus, tel *telemetry.Bus, cfg Config, rng *xrand.Rand) *Meter {
	if cfg.Period <= 0 {
		panic("wattsup: period must be positive")
	}
	if cfg.NoiseSigma > 0 && rng == nil {
		panic("wattsup: noise needs an rng")
	}
	if tel == nil {
		tel = telemetry.NewBus()
	}
	m := &Meter{bus: bus, cfg: cfg, rng: rng, tel: tel}
	tel.Emit(telemetry.Event{Kind: telemetry.KindSeriesDefine, Source: SeriesName, Unit: "W"})
	m.ticker = sim.NewTicker(engine, cfg.Period, m.sample)
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
	w := float64(cur-m.prevE) / float64(m.cfg.Period)
	m.prevE = cur
	if m.cfg.NoiseSigma > 0 {
		// The product is rounded, so no GOARCH fuses it into the sum.
		w += float64(m.rng.NormFloat64() * m.cfg.NoiseSigma)
	}
	if m.cfg.Quantum > 0 {
		w = float64(int64(w/m.cfg.Quantum+0.5)) * m.cfg.Quantum
	}
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
