package power

import "repro/internal/units"

// Intensity characterizes how power-hungry a core's activity is relative
// to a fully compute-bound loop. Memory-bound code stalls more and draws
// less core power; I/O submission barely wakes the core.
type Intensity float64

// Canonical activity intensities used by the workload models.
const (
	IntensityCompute Intensity = 1.0  // dense stencil / arithmetic loops
	IntensityRender  Intensity = 0.85 // rasterization: mixed compute + memory
	IntensityMemory  Intensity = 0.60 // streaming copies, serialization
	IntensityIO      Intensity = 0.10 // syscall submission, page-cache bookkeeping
)

// CPUModel converts "N cores active at intensity i" into package
// power. Power splits into a static per-socket floor (uncore, leakage,
// idle cores in C1) and a dynamic per-core component that scales with
// intensity and, when a power cap throttles the frequency f, with f·V²
// approximated as (f/fNominal)³.
type CPUModel struct {
	Sockets        int
	CoresPerSocket int
	// StaticPerSocket is drawn whenever the socket is powered,
	// regardless of load.
	StaticPerSocket units.Watts
	// DynamicPerCore is the extra power of one core running
	// compute-bound at nominal frequency.
	DynamicPerCore units.Watts
	// NominalGHz is the operating frequency; a power cap throttles
	// down from it, to no lower than NominalGHz/2.
	NominalGHz float64
	// PowerCap, when positive, emulates a RAPL package power limit
	// (PL1): the model throttles frequency just enough to keep package
	// power at or under the cap. Compute durations scale accordingly
	// via EffectiveGHz.
	PowerCap units.Watts

	domain *Domain

	activeCores int
	intensity   Intensity
	// throttledGHz is the operating point after the cap is applied.
	throttledGHz float64
}

// Bind attaches the model to a power domain and sets the idle level.
func (m *CPUModel) Bind(d *Domain) {
	if m.Sockets <= 0 || m.CoresPerSocket <= 0 {
		panic("power: CPUModel needs at least one socket and core")
	}
	m.domain = d
	m.apply()
}

// TotalCores returns the number of hardware cores in the node.
func (m *CPUModel) TotalCores() int { return m.Sockets * m.CoresPerSocket }

// SetLoad declares that 'cores' cores are running at the given
// intensity; the rest idle. It clamps cores to the hardware limit.
func (m *CPUModel) SetLoad(cores int, intensity Intensity) {
	if cores < 0 {
		cores = 0
	}
	if max := m.TotalCores(); cores > max {
		cores = max
	}
	m.activeCores = cores
	m.intensity = intensity
	m.apply()
}

// EffectiveGHz returns the operating frequency after the power cap is
// applied: NominalGHz when uncapped or under the cap, otherwise the
// highest frequency that keeps package power at the cap (floored at
// NominalGHz/2).
func (m *CPUModel) EffectiveGHz() float64 {
	if m.throttledGHz > 0 {
		return m.throttledGHz
	}
	return m.NominalGHz
}

// SlowdownFactor returns how much longer compute takes at the
// effective frequency (nominal / effective), for charging time.
func (m *CPUModel) SlowdownFactor() float64 {
	eff := m.EffectiveGHz()
	if eff <= 0 {
		return 1
	}
	return m.NominalGHz / eff
}

// staticPower is the sockets' load-independent floor. The product is
// rounded, so no GOARCH fuses it into the sum or difference it meets.
func (m *CPUModel) staticPower() units.Watts {
	return units.Watts(float64(m.Sockets) * float64(m.StaticPerSocket))
}

// powerAt computes package power at frequency f for the current load.
func (m *CPUModel) powerAt(f float64) units.Watts {
	r := 1.0
	if m.NominalGHz > 0 {
		r = f / m.NominalGHz
	}
	dynamic := units.Watts(float64(m.activeCores) * float64(m.intensity) *
		float64(m.DynamicPerCore) * r * r * r)
	return m.staticPower() + dynamic
}

// Power returns the current package power for the configured load,
// with the cap applied.
func (m *CPUModel) Power() units.Watts { return m.powerAt(m.EffectiveGHz()) }

// enforceCap solves for the throttled frequency.
func (m *CPUModel) enforceCap() {
	m.throttledGHz = 0
	if m.PowerCap <= 0 || m.powerAt(m.NominalGHz) <= m.PowerCap {
		return
	}
	static := m.staticPower()
	dynNominal := float64(m.activeCores) * float64(m.intensity) * float64(m.DynamicPerCore)
	minGHz := m.NominalGHz / 2
	if dynNominal <= 0 || m.PowerCap <= static {
		m.throttledGHz = minGHz
		return
	}
	// (f/fn)^3 * dynNominal = cap - static
	ratio := cbrt(float64(m.PowerCap-static) / dynNominal)
	f := m.NominalGHz * ratio
	if f < minGHz {
		f = minGHz
	}
	if f > m.NominalGHz {
		f = m.NominalGHz
	}
	m.throttledGHz = f
}

// cbrt is a dependency-free cube root for positive inputs.
func cbrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (2*z + x/(z*z)) / 3
	}
	return z
}

func (m *CPUModel) apply() {
	m.enforceCap()
	if m.domain != nil {
		m.domain.SetLevel(m.Power())
	}
}

// DRAMModel converts memory traffic into DRAM power: a static
// refresh/standby floor plus a dynamic term proportional to bandwidth.
type DRAMModel struct {
	// Static is the all-DIMMs standby + refresh power.
	Static units.Watts
	// PerGBs is dynamic watts per GB/s of traffic.
	PerGBs float64

	domain *Domain
	gbs    float64
}

// Bind attaches the model to a power domain and sets the idle level.
func (m *DRAMModel) Bind(d *Domain) {
	m.domain = d
	m.apply()
}

// SetBandwidth declares the current memory traffic in GB/s.
func (m *DRAMModel) SetBandwidth(gbs float64) {
	if gbs < 0 {
		gbs = 0
	}
	m.gbs = gbs
	m.apply()
}

// Power returns the current DRAM power.
func (m *DRAMModel) Power() units.Watts {
	return m.Static + units.Watts(m.gbs*m.PerGBs)
}

func (m *DRAMModel) apply() {
	if m.domain != nil {
		m.domain.SetLevel(m.Power())
	}
}

// RestModel is the motherboard / fans / NIC / PSU-overhead remainder.
// It draws a constant base plus a fan term that tracks the heat being
// produced by the other domains (fans spin up under load).
type RestModel struct {
	// Base is the constant floor.
	Base units.Watts
	// FanCoeff is extra watts per watt of other-domain power above
	// FanRef (fans ramp with dissipated heat).
	FanCoeff float64
	// FanRef is the other-domain power at which fans sit at minimum.
	FanRef units.Watts

	domain *Domain
	other  units.Watts
}

// Bind attaches the model to a power domain and sets the base level.
func (m *RestModel) Bind(d *Domain) {
	m.domain = d
	m.apply()
}

// ObserveOtherPower tells the model how much the rest of the node is
// currently drawing, so the fan term can respond. The node calls this
// whenever any other domain changes level.
func (m *RestModel) ObserveOtherPower(w units.Watts) {
	m.other = w
	m.apply()
}

// Power returns the current rest-of-system power.
func (m *RestModel) Power() units.Watts {
	excess := m.other - m.FanRef
	if excess < 0 {
		excess = 0
	}
	return m.Base + units.Watts(m.FanCoeff*float64(excess))
}

func (m *RestModel) apply() {
	if m.domain != nil {
		m.domain.SetLevel(m.Power())
	}
}
