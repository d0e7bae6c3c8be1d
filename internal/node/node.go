// Package node assembles the substrates into the paper's system under
// test (Table I): a dual-socket Sandy Bridge Xeon E5-2665 node with
// 64 GB DDR3, a Seagate 500 GB 7200 rpm disk, a RAPL-instrumented CPU,
// and a Wattsup wall meter. It exposes the activity API the workloads
// drive — Compute, Render, WithIO, Idle — converting real work counts
// (cell updates, pixels, bytes) into virtual time and subsystem power.
//
// Every constant in Profile is calibrated against numbers the paper
// itself publishes; see DESIGN.md §3 for the derivation.
package node

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/wattsup"
	"repro/internal/xrand"
)

// Profile holds every hardware and calibration constant of a platform.
type Profile struct {
	Name string

	// CPU (Table I: 2x Intel Xeon E5-2665, 2.4 GHz, 16 cores).
	Sockets, CoresPerSocket int
	NominalGHz              float64
	PkgStaticPerSocket      units.Watts
	DynamicPerCore          units.Watts
	// PackagePowerCap, when positive, applies a RAPL PL1-style limit:
	// the CPU throttles frequency (stretching compute time) to keep
	// package power at or under the cap.
	PackagePowerCap units.Watts

	// Memory (Table I: 4x 16 GB DDR3-1333).
	MemoryBytes units.Bytes
	DRAMStatic  units.Watts
	DRAMPerGBs  float64

	// Rest of system (motherboard, fans, NIC, PSU overhead).
	RestBase units.Watts
	FanCoeff float64
	FanRef   units.Watts

	// Storage stack.
	Disk  storage.DiskParams
	Cache storage.CacheParams
	// RAIDMembers > 1 replaces the single disk with a RAID-0 array of
	// that many members (stripe unit raidStripe) — Future Work.
	RAIDMembers int
	// NVRAM inserts a burst-buffer tier in front of the disk — the
	// Future Work deep-memory-hierarchy study.
	NVRAM bool

	// Workload cost calibration: how fast this node performs each kind
	// of work, in virtual time. Derived from the paper's measured stage
	// times (DESIGN.md §3).
	CellUpdateRate  float64 // heat-solver cell updates per second
	PixelRate       float64 // colormapped pixels per second
	ContourCellRate float64 // marching-squares cells per second
	EncodeRate      float64 // PNG encode bytes per second
	CompressRate    float64 // DEFLATE field-compression bytes per second

	// Subsystem activity levels per workload kind.
	SimCores   int
	SimDRAMGBs float64
	VizCores   int
	VizDRAMGBs float64
	IOCores    int
	IODRAMGBs  float64

	// OSNoiseSigma perturbs package power around its level at ~3 Hz to
	// reproduce the jitter visible in the paper's profiles (0 = off).
	OSNoiseSigma units.Watts
}

// SandyBridge returns the paper's platform, fully calibrated.
func SandyBridge() Profile {
	return Profile{
		Name:               "2x Intel Xeon E5-2665 (Sandy Bridge), 64 GB DDR3, Seagate 500 GB 7200 rpm",
		Sockets:            2,
		CoresPerSocket:     8,
		NominalGHz:         2.4,
		PkgStaticPerSocket: 21,
		DynamicPerCore:     1.875,

		MemoryBytes: 64 * units.GiB,
		DRAMStatic:  10,
		DRAMPerGBs:  0.5,

		RestBase: 47.5,
		FanCoeff: 0.07,
		FanRef:   52,

		Disk:  storage.SeagateHDD(),
		Cache: storage.LinuxPageCache(),

		CellUpdateRate:  1.12e7,
		PixelRate:       4.6e5,
		ContourCellRate: 1.0e6,
		EncodeRate:      2.0e7,
		CompressRate:    2.5e8,

		SimCores:   16,
		SimDRAMGBs: 12,
		VizCores:   8,
		VizDRAMGBs: 6,
		IOCores:    1,
		IODRAMGBs:  0.6,

		OSNoiseSigma: 0.6,
	}
}

// SandyBridgeSSD returns the same node with the HDD swapped for a SATA
// SSD — the Future Work device study.
func SandyBridgeSSD() Profile {
	p := SandyBridge()
	p.Name = "2x Intel Xeon E5-2665 (Sandy Bridge), 64 GB DDR3, SATA SSD"
	p.Disk = storage.SamsungSSD()
	// The SSD draws less at idle; keep the wall floor comparable by
	// folding the difference into nothing — the floor legitimately
	// drops by ~3.8 W versus the HDD node.
	return p
}

// SandyBridgeRAID returns the node with its single disk replaced by a
// RAID-0 array of n identical members — the Future Work RAID study.
func SandyBridgeRAID(n int) Profile {
	p := SandyBridge()
	p.Name = fmt.Sprintf("2x Intel Xeon E5-2665 (Sandy Bridge), 64 GB DDR3, RAID-0 x%d 7200 rpm", n)
	p.RAIDMembers = n
	return p
}

// raidStripe is the stripe unit of a RAID-0 profile's array.
const raidStripe = 256 * units.KiB

// SandyBridgeNVRAM returns the node with an NVRAM burst-buffer tier in
// front of the disk — the Future Work deep-memory-hierarchy study
// (Gamell et al. [26]).
func SandyBridgeNVRAM() Profile {
	p := SandyBridge()
	p.Name = "2x Intel Xeon E5-2665 (Sandy Bridge), 64 GB DDR3, NVRAM burst buffer + 7200 rpm"
	p.NVRAM = true
	return p
}

// IdlePower returns the static floor of a node built from p: the wall
// power with every subsystem quiescent. It sums the idle level of every
// domain NewOnEngine attaches, in the bus's order (package static, DRAM
// static, each disk or RAID member, the NVRAM tier, rest), so it equals
// a fresh node's Bus.SystemPower exactly. Predict and fio take their
// idle baseline from it.
func IdlePower(p Profile) units.Watts {
	// The product is rounded, so no GOARCH fuses it into the sum.
	sum := units.Watts(float64(p.Sockets)*float64(p.PkgStaticPerSocket)) + p.DRAMStatic
	for i := 0; i < max(p.RAIDMembers, 1); i++ {
		sum += p.Disk.IdlePower
	}
	if p.NVRAM {
		sum += storage.NVRAMIdlePower
	}
	return sum + p.RestBase
}

// Node is one simulated machine.
type Node struct {
	Profile Profile
	Engine  *sim.Engine
	Bus     *power.Bus

	CPU  *power.CPUModel
	DRAM *power.DRAMModel
	Rest *power.RestModel

	// Device is the block store under the cache/filesystem: a Disk, a
	// StripedDisk, or a BurstBuffer, per the profile.
	Device storage.Device
	Cache  *storage.PageCache
	FS     *storage.FileSystem

	MSR *rapl.MSR

	rng      *xrand.Rand
	noise    *sim.Ticker
	noiseCur units.Watts
}

// New builds a node from a profile. seed drives all stochastic parts
// (disk rotation, meter noise, OS noise); equal seeds give
// bit-identical runs.
func New(profile Profile, seed uint64) *Node {
	return NewOnEngine(sim.NewEngine(), profile, seed)
}

// NewOnEngine builds a node on an existing engine, so several nodes can
// share one virtual clock — the multi-node (in-transit) experiments.
func NewOnEngine(engine *sim.Engine, profile Profile, seed uint64) *Node {
	rng := xrand.New(seed)
	bus := power.NewBus(engine)

	n := &Node{Profile: profile, Engine: engine, Bus: bus, rng: rng}

	pkgDom := bus.NewDomain("package", 0)
	n.CPU = &power.CPUModel{
		Sockets:         profile.Sockets,
		CoresPerSocket:  profile.CoresPerSocket,
		StaticPerSocket: profile.PkgStaticPerSocket,
		DynamicPerCore:  profile.DynamicPerCore,
		NominalGHz:      profile.NominalGHz,
		PowerCap:        profile.PackagePowerCap,
	}
	n.CPU.Bind(pkgDom)

	dramDom := bus.NewDomain("dram", 0)
	n.DRAM = &power.DRAMModel{Static: profile.DRAMStatic, PerGBs: profile.DRAMPerGBs}
	n.DRAM.Bind(dramDom)

	if profile.RAIDMembers > 1 {
		n.Device = storage.NewStripedDisk(engine, profile.RAIDMembers, profile.Disk, raidStripe, bus, rng.Split())
	} else {
		diskDom := bus.NewDomain("disk", 0)
		n.Device = storage.NewDisk(engine, profile.Disk, diskDom, rng.Split())
	}
	if profile.NVRAM {
		nvDom := bus.NewDomain("nvram", 0)
		n.Device = storage.NewBurstBuffer(engine, n.Device, nvDom)
	}
	n.Cache = storage.NewPageCache(engine, n.Device, profile.Cache)
	n.FS = storage.NewFileSystem(engine, n.Device, n.Cache)
	// Skip one stream: the OS-noise and meter streams are split after
	// this point, and every seeded run's output depends on which
	// streams they get.
	rng.Split()

	restDom := bus.NewDomain("rest", 0)
	n.Rest = &power.RestModel{Base: profile.RestBase, FanCoeff: profile.FanCoeff, FanRef: profile.FanRef}
	n.Rest.Bind(restDom)
	n.observeRest()

	n.MSR = rapl.NewMSR(bus)

	if profile.OSNoiseSigma > 0 {
		noiseRng := rng.Split()
		n.noise = sim.NewTicker(engine, 0.31, func(sim.Time) {
			// Replace the previous perturbation with a fresh one.
			// The product is rounded, so no GOARCH fuses it into the
			// difference below.
			delta := units.Watts(noiseRng.NormFloat64() * float64(profile.OSNoiseSigma))
			pkg := n.Bus.Domain("package")
			pkg.Add(delta - n.noiseCur)
			n.noiseCur = delta
			n.observeRest()
		})
		n.noise.Start()
	}
	return n
}

// observeRest feeds the fan model the CPU+DRAM draw.
func (n *Node) observeRest() {
	pkg := n.Bus.Domain("package").Level()
	dram := n.Bus.Domain("dram").Level()
	n.Rest.ObserveOtherPower(pkg + dram)
}

// setLoad applies a CPU/DRAM operating point and updates the fans.
func (n *Node) setLoad(cores int, intensity power.Intensity, dramGBs float64) {
	n.CPU.SetLoad(cores, intensity)
	n.DRAM.SetBandwidth(dramGBs)
	n.observeRest()
}

// idleLoad restores the idle operating point.
func (n *Node) idleLoad() { n.setLoad(0, power.IntensityCompute, 0) }

// SetLoad applies a CPU/DRAM operating point directly. Foreground
// workloads should prefer Compute/Render/WithIO, which restore idle on
// return; event-driven consumers (e.g. the in-transit staging node)
// call SetLoad from engine callbacks to bracket their busy periods.
func (n *Node) SetLoad(cores int, intensity power.Intensity, dramGBs float64) {
	n.setLoad(cores, intensity, dramGBs)
}

// SetIdle restores the idle operating point (the inverse of SetLoad).
func (n *Node) SetIdle() { n.idleLoad() }

// Now returns the node's virtual time.
func (n *Node) Now() sim.Time { return n.Engine.Now() }

// Idle advances virtual time with all subsystems quiescent.
func (n *Node) Idle(d units.Seconds) {
	n.idleLoad()
	n.Engine.Advance(d)
}

// Compute charges the simulation phase: the full solver core count at
// compute intensity for cellUpdates of stencil work. Under a package
// power cap the CPU throttles and the phase stretches accordingly.
func (n *Node) Compute(cellUpdates uint64) {
	n.setLoad(n.Profile.SimCores, power.IntensityCompute, n.Profile.SimDRAMGBs)
	d := units.Seconds(float64(cellUpdates) / n.Profile.CellUpdateRate)
	n.Engine.Advance(d * units.Seconds(n.CPU.SlowdownFactor()))
	n.idleLoad()
}

// RenderCost returns the virtual duration of a render with the given
// work counts (pixels colormapped, contour cells visited, PNG bytes
// encoded).
func (n *Node) RenderCost(pixels, contourCells int, encodedBytes units.Bytes) units.Seconds {
	return units.Seconds(float64(pixels)/n.Profile.PixelRate +
		float64(contourCells)/n.Profile.ContourCellRate +
		float64(encodedBytes)/n.Profile.EncodeRate)
}

// Render charges a visualization: the render core count at render
// intensity for the given work (stretched under a power cap).
func (n *Node) Render(pixels, contourCells int, encodedBytes units.Bytes) {
	n.setLoad(n.Profile.VizCores, power.IntensityRender, n.Profile.VizDRAMGBs)
	d := n.RenderCost(pixels, contourCells, encodedBytes)
	n.Engine.Advance(d * units.Seconds(n.CPU.SlowdownFactor()))
	n.idleLoad()
}

// Compress charges a data-compression pass over n bytes: four cores at
// memory-bound intensity at the profile's DEFLATE rate (stretched
// under a power cap).
func (n *Node) Compress(bytes units.Bytes) {
	if bytes <= 0 || n.Profile.CompressRate <= 0 {
		return
	}
	n.setLoad(4, power.IntensityMemory, 4)
	d := units.TransferTime(bytes, n.Profile.CompressRate)
	n.Engine.Advance(d * units.Seconds(n.CPU.SlowdownFactor()))
	n.idleLoad()
}

// WithIO runs fn under the I/O operating point: one core submitting
// syscalls, light memory traffic, CPU otherwise idle (iowait) while the
// disk works. All filesystem calls that advance the clock should happen
// inside a WithIO region.
func (n *Node) WithIO(fn func()) {
	n.setLoad(n.Profile.IOCores, power.IntensityIO, n.Profile.IODRAMGBs)
	defer n.idleLoad()
	fn()
}

// WaitDiskIdle advances until the storage device has no queued work
// (e.g. after background write-back or a burst-buffer drain).
func (n *Node) WaitDiskIdle() {
	n.Engine.AdvanceWhile(func() sim.Time {
		if n.Device.Idle() {
			return 0
		}
		if free := n.Device.FreeAt(); free > n.Engine.Now() {
			return free
		}
		// Idle-state transitions (e.g. burst-buffer drain delay) may be
		// pending without queued media work: poll.
		return n.Engine.Now() + 0.1
	})
}

// InstallFaults attaches a fault injector to the node's whole storage
// stack — the block device (latency spikes) and the filesystem
// (transient errors, bit-rot). Pass nil to detach. A run builds one
// injector and installs it on every node; nodes sharing one engine
// fire their storage events in a deterministic order, so the shared
// decision stream is part of the run's deterministic state.
func (n *Node) InstallFaults(inj *fault.Injector) {
	n.Device.SetFaults(inj)
	n.FS.SetFaults(inj)
}

// DiskStats returns the media statistics of whatever device the
// profile configured (behind a burst buffer, its backing store's).
func (n *Node) DiskStats() storage.DiskStats { return n.Device.Stats() }

// SystemPower returns the instantaneous wall power.
func (n *Node) SystemPower() units.Watts { return n.Bus.SystemPower() }

// SystemEnergy returns cumulative wall energy.
func (n *Node) SystemEnergy() units.Joules { return n.Bus.SystemEnergy() }

// StopNoise halts the OS-noise ticker and removes its perturbation,
// for sections whose power must be exact.
func (n *Node) StopNoise() {
	if n.noise != nil {
		n.noise.Stop()
		pkg := n.Bus.Domain("package")
		pkg.Add(-n.noiseCur)
		n.noiseCur = 0
		n.observeRest()
	}
}

// Rand returns a generator derived from the node's seed for workloads
// that need their own randomness.
func (n *Node) Rand() *xrand.Rand { return n.rng.Split() }

// Instruments bundles the paper's measurement setup for one run: the
// samplers emit onto the run's telemetry bus, and a trace.Recorder
// consumer materializes their readings into Profile.
type Instruments struct {
	Profile *trace.Profile
	Meter   *wattsup.Meter
	RAPL    *rapl.Monitor
}

// NewInstruments attaches a Wattsup meter and a RAPL monitor emitting
// onto tel (nil means a fresh private bus), with a trace recorder
// materializing their samples into a fresh profile, mirroring the
// paper's Figure 3 setup. The
// recorder is attached before the samplers are built so it sees their
// series definitions; series order (system, rapl.PKG, rapl.DRAM) is
// therefore stable, which fixes the trace CSV column order.
func (n *Node) NewInstruments(label string, tel *telemetry.Bus) *Instruments {
	if tel == nil {
		tel = telemetry.NewBus()
	}
	prof := trace.NewProfile(label)
	tel.Attach(trace.NewRecorder(prof))
	meter := wattsup.NewMeter(n.Engine, n.Bus, tel, n.rng.Split())
	mon := rapl.NewMonitor(n.Engine, n.MSR, tel)
	return &Instruments{Profile: prof, Meter: meter, RAPL: mon}
}

// Start begins sampling on both instruments.
func (i *Instruments) Start() {
	i.Meter.Start()
	i.RAPL.Start()
}

// Stop halts sampling.
func (i *Instruments) Stop() {
	i.Meter.Stop()
	i.RAPL.Stop()
}

// SpecRow is one Table I line.
type SpecRow struct{ Item, Value string }

// Spec returns the hardware specification table (Table I).
func (n *Node) Spec() []SpecRow {
	p := n.Profile
	return []SpecRow{
		{"CPU", "2x Intel Xeon E5-2665"},
		{"CPU frequency", "2.4 GHz"},
		{"Last-level cache", "20 MB"},
		{"Memory", "4x 16GB DDR3-1333"},
		{"Memory size", p.MemoryBytes.String()},
		{"Hard disk", "Seagate 7200rpm disk"},
		{"Storage size", p.Disk.Capacity.String()},
		{"Disk bandwidth", "6.0 Gbps (SATA)"},
	}
}
