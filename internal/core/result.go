package core

import (
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/units"
)

// RunResult captures everything the paper measures for one run — of
// any pipeline. Every run fills the instrumented fields, which meter
// the simulation node; cluster runs (in-transit, hybrid) additionally
// split Energy across the two nodes and account the network.
//
// The struct is JSON-serializable (EncodeJSON): the CLI's -format
// json mode and the service daemon's report endpoint share this one
// encoding. The raw instrument series and retained frames are excluded
// — they are bulk inspection data, exported via -csv and -frames.
type RunResult struct {
	Pipeline Pipeline  `json:"pipeline"`
	Case     CaseStudy `json:"case"`

	// Profile holds the instrument series (system, rapl.PKG,
	// rapl.DRAM) of the simulation node; per-stage time and energy
	// are in StageTime and StageEnergy.
	Profile *trace.Profile `json:"-"`

	// ExecTime is the wall (virtual) duration of the run (Fig. 7).
	ExecTime units.Seconds `json:"exec_seconds"`
	// Energy is the exact full-system energy from the power bus
	// (Fig. 10) — for cluster runs, summed over both nodes;
	// MeasuredEnergy integrates the simulation node's 1 Hz meter.
	Energy         units.Joules `json:"energy_joules"`
	MeasuredEnergy units.Joules `json:"measured_energy_joules"`
	// AvgPower and PeakPower come from the meter series (Figs. 8-9).
	AvgPower  units.Watts `json:"avg_power_watts"`
	PeakPower units.Watts `json:"peak_power_watts"`

	// StageTime sums phase durations per stage (Fig. 4); it is the
	// stagegraph engine's time ledger, folded from StageDone telemetry.
	StageTime map[string]units.Seconds `json:"stage_seconds"`
	// StageEnergy sums metered full-system energy per stage, from the
	// energy brackets on the same StageDone events — the per-phase
	// attribution behind the paper's dynamic-vs-static argument. For
	// cluster runs the engine's clock is the simulation node, so the
	// attribution covers that node only.
	StageEnergy map[string]units.Joules `json:"stage_energy_joules"`

	// Frames is the number of visualization events performed;
	// FrameChecksum fingerprints the rendered PNGs so tests can verify
	// the pipelines produce identical imagery.
	Frames        int    `json:"frames"`
	FrameChecksum uint64 `json:"frame_checksum"`
	// FramePNGs holds the encoded frames when RetainFrames is set.
	FramePNGs [][]byte `json:"-"`

	// BytesWritten and BytesRead are total media traffic, summed over
	// the nodes (for attribution).
	BytesWritten units.Bytes `json:"bytes_written"`
	BytesRead    units.Bytes `json:"bytes_read"`

	// CompressionRatio is the last measured payload compression ratio
	// when CompressInsitu is enabled (0 otherwise).
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	// CinemaFrames counts extra image-database views rendered when
	// CinemaVariants is set (not part of FrameChecksum).
	CinemaFrames int `json:"cinema_frames,omitempty"`

	// Faults counts the injected storage faults this run absorbed (all
	// zero when injection is off); Recovery accounts the retries,
	// re-simulations, and backoff spent absorbing them.
	Faults   fault.Stats   `json:"faults"`
	Recovery RecoveryStats `json:"recovery"`

	// SimEnergy and StagingEnergy split Energy between the simulation
	// and staging nodes of a cluster run. Energy is reported both ways
	// because the right accounting depends on the deployment: the
	// simulation node alone (staging shared/amortized across jobs) or
	// the whole cluster. Zero for single-node runs.
	SimEnergy     units.Joules `json:"sim_energy_joules,omitempty"`
	StagingEnergy units.Joules `json:"staging_energy_joules,omitempty"`
	// BytesSent is the network traffic a cluster run shipped over the
	// link (zero for single-node runs).
	BytesSent units.Bytes `json:"bytes_sent,omitempty"`
	// StagingBusy is how long the staging node actually worked; its
	// idle remainder is the cost of dedicating a node to the pipeline.
	StagingBusy units.Seconds `json:"staging_busy_seconds,omitempty"`
}

// EnergyEfficiency returns frames per kilojoule — the work/energy
// metric behind Fig. 11.
func (r *RunResult) EnergyEfficiency() float64 {
	return efficiency(r.Frames, r.Energy)
}
