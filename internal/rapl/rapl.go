// Package rapl emulates Intel's Running Average Power Limit interface
// as the paper used it on Sandy Bridge: model-specific registers (MSRs)
// holding 32-bit cumulative energy counters in 15.3 µJ units for the
// PKG and DRAM planes, read by a 1 Hz software monitor that differences
// consecutive counter values — handling wraparound — to produce
// per-domain power. Reading the MSRs costs the package domain the
// 0.2 W the paper measured at 1 Hz.
package rapl

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Domain identifies a RAPL power plane.
type Domain int

// The RAPL domains the paper read on its Sandy Bridge server.
const (
	PKG  Domain = iota // whole processor package
	DRAM               // memory
)

func (d Domain) String() string {
	switch d {
	case PKG:
		return "PKG"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// EnergyUnit is the Sandy Bridge RAPL energy resolution: 2^-16 J.
const EnergyUnit = 1.0 / 65536

// EnergySource yields cumulative joules for a domain; PKG and DRAM wrap
// power.Domain energies.
type EnergySource func() units.Joules

// MSR emulates the energy-status registers.
type MSR struct {
	sources map[Domain]EnergySource
}

// NewMSR builds the register file from per-domain energy sources.
func NewMSR(sources map[Domain]EnergySource) *MSR {
	if len(sources) == 0 {
		panic("rapl: no energy sources")
	}
	return &MSR{sources: sources}
}

// ReadEnergyStatus returns the 32-bit wrapped counter for a domain, in
// EnergyUnit increments, exactly as MSR_PKG_ENERGY_STATUS does.
func (m *MSR) ReadEnergyStatus(d Domain) (uint32, error) {
	src, ok := m.sources[d]
	if !ok {
		return 0, fmt.Errorf("rapl: domain %v not supported on this package", d)
	}
	ticks := uint64(float64(src()) / EnergyUnit)
	return uint32(ticks), nil // wraparound by truncation
}

// CounterDelta returns the energy between two counter reads, handling a
// single wraparound (the monitor samples far faster than the ~9-minute
// wrap period at node power levels).
func CounterDelta(prev, cur uint32) units.Joules {
	delta := cur - prev // uint32 arithmetic wraps correctly
	return units.Joules(float64(delta) * EnergyUnit)
}

// Sources builds the source map from the node's power bus: PKG = the
// package domain, DRAM = the dram domain.
func Sources(bus *power.Bus) map[Domain]EnergySource {
	pkg := bus.Domain("package")
	dram := bus.Domain("dram")
	if pkg == nil || dram == nil {
		panic("rapl: bus lacks package/dram domains")
	}
	return map[Domain]EnergySource{
		PKG:  func() units.Joules { return pkg.Energy() },
		DRAM: func() units.Joules { return dram.Energy() },
	}
}

// The paper's monitor: one read of each domain per Period, costing the
// package domain Overhead while it runs.
const (
	Period   units.Seconds = 1
	Overhead units.Watts   = 0.2
)

// domains are the planes the monitor records, in series order.
var domains = [...]Domain{PKG, DRAM}

// Monitor periodically reads the MSRs and emits per-domain average
// power as telemetry energy-sample events.
type Monitor struct {
	msr     *MSR
	ticker  *sim.Ticker
	pkgDom  *power.Domain
	tel     *telemetry.Bus
	names   [len(domains)]string
	prev    map[Domain]uint32
	running bool
}

// SourceName returns the telemetry source a domain samples under
// ("rapl.PKG", "rapl.DRAM", ...).
func SourceName(d Domain) string { return "rapl." + d.String() }

// NewMonitor attaches a monitor to the MSRs, emitting PKG and DRAM
// readings into tel (sources defined on construction, in that order, so
// recorders materialize series columns in a stable order). pkgDomain
// receives the monitoring overhead and may be nil, which leaves every
// domain's power exact.
func NewMonitor(engine *sim.Engine, msr *MSR, tel *telemetry.Bus, pkgDomain *power.Domain) *Monitor {
	if tel == nil {
		tel = telemetry.NewBus()
	}
	m := &Monitor{
		msr:    msr,
		pkgDom: pkgDomain,
		tel:    tel,
		prev:   make(map[Domain]uint32),
	}
	for i, d := range domains {
		m.names[i] = SourceName(d)
		tel.Emit(telemetry.Event{Kind: telemetry.KindSeriesDefine, Source: m.names[i], Unit: "W"})
	}
	m.ticker = sim.NewTicker(engine, Period, m.sample)
	return m
}

// Start begins sampling (and applies the monitoring overhead).
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	for _, d := range domains {
		if v, err := m.msr.ReadEnergyStatus(d); err == nil {
			m.prev[d] = v
		}
	}
	if m.pkgDom != nil {
		m.pkgDom.Add(Overhead)
	}
	m.ticker.Start()
}

// Stop halts sampling and removes the overhead.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.ticker.Stop()
	if m.pkgDom != nil {
		m.pkgDom.Add(-Overhead)
	}
}

func (m *Monitor) sample(now sim.Time) {
	for i, d := range domains {
		cur, err := m.msr.ReadEnergyStatus(d)
		if err != nil {
			continue
		}
		e := CounterDelta(m.prev[d], cur)
		m.prev[d] = cur
		m.tel.Emit(telemetry.Event{
			Kind:   telemetry.KindEnergySample,
			Source: m.names[i],
			At:     now,
			Value:  float64(e) / float64(Period),
		})
	}
}
