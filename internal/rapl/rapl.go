// Package rapl emulates Intel's Running Average Power Limit interface
// as the paper used it on Sandy Bridge: model-specific registers (MSRs)
// holding 32-bit cumulative energy counters in 15.3 µJ units for the
// PKG and DRAM planes, which read the power bus's package and dram
// domains, and a 1 Hz software monitor that differences consecutive
// counter values — handling wraparound — to produce per-domain power.
// Reading the MSRs costs the package domain the 0.2 W the paper
// measured at 1 Hz.
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

// MSR emulates the energy-status registers of the node's package and
// dram power domains.
type MSR struct {
	planes [len(domains)]*power.Domain // indexed by Domain
}

// NewMSR builds the register file over the bus's package and dram
// domains.
func NewMSR(bus *power.Bus) *MSR {
	pkg, dram := bus.Domain("package"), bus.Domain("dram")
	if pkg == nil || dram == nil {
		panic("rapl: bus lacks package/dram domains")
	}
	return &MSR{planes: [len(domains)]*power.Domain{PKG: pkg, DRAM: dram}}
}

// ReadEnergyStatus returns the 32-bit wrapped counter for a domain, in
// EnergyUnit increments, exactly as MSR_PKG_ENERGY_STATUS does.
func (m *MSR) ReadEnergyStatus(d Domain) uint32 {
	ticks := uint64(float64(m.planes[d].Energy()) / EnergyUnit)
	return uint32(ticks) // wraparound by truncation
}

// CounterDelta returns the energy between two counter reads, handling a
// single wraparound (the monitor samples far faster than the ~9-minute
// wrap period at node power levels).
func CounterDelta(prev, cur uint32) units.Joules {
	delta := cur - prev // uint32 arithmetic wraps correctly
	return units.Joules(float64(delta) * EnergyUnit)
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
	tel     *telemetry.Bus
	names   [len(domains)]string
	prev    [len(domains)]uint32
	running bool
}

// SourceName returns the telemetry source a domain samples under
// ("rapl.PKG", "rapl.DRAM", ...).
func SourceName(d Domain) string { return "rapl." + d.String() }

// NewMonitor attaches a monitor to the MSRs, emitting PKG and DRAM
// readings into tel (sources defined on construction, in that order, so
// recorders materialize series columns in a stable order). While it
// runs, the monitor adds its Overhead to the MSRs' package domain.
func NewMonitor(engine *sim.Engine, msr *MSR, tel *telemetry.Bus) *Monitor {
	if tel == nil {
		tel = telemetry.NewBus()
	}
	m := &Monitor{msr: msr, tel: tel}
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
		m.prev[d] = m.msr.ReadEnergyStatus(d)
	}
	m.msr.planes[PKG].Add(Overhead)
	m.ticker.Start()
}

// Stop halts sampling and removes the overhead.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.ticker.Stop()
	m.msr.planes[PKG].Add(-Overhead)
}

func (m *Monitor) sample(now sim.Time) {
	for i, d := range domains {
		cur := m.msr.ReadEnergyStatus(d)
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
