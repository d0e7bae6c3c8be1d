// Package core implements the paper's primary contribution: the
// instrumented visualization pipelines — post-processing (simulate →
// write → read → visualize), in-situ (visualize alongside the
// simulation), the multi-node in-transit variant, and a hybrid of the
// last two — their case-study configurations, and the greenness
// analysis the paper performs on them: performance, average and peak
// power, energy, energy efficiency, the dynamic-vs-static breakdown of
// the in-situ savings (§V-C), and the data-reorganization advisor of
// §V-D and the Future Work section.
//
// Each pipeline is a program (programs.go): a Go function that runs
// the application and brackets each timed step under one of the six
// StageNames() phases. One internal/core/stagegraph engine executes
// every program and owns stage timing, per-stage energy brackets, and
// the retry/recovery policy uniformly.
package core

import (
	"fmt"

	"repro/internal/core/stagegraph"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/heat"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/viz"
)

// Pipeline identifies which visualization pipeline a run uses.
type Pipeline int

// The pipelines: the paper's two (Fig. 2), the Future Work in-transit
// variant, and a hybrid of the last two (in-situ rendering +
// asynchronous in-transit checkpoint offload, à la Catalyst-ADIOS2).
const (
	PostProcessing Pipeline = iota
	InSitu
	InTransit
	Hybrid
)

func (p Pipeline) String() string {
	switch p {
	case InSitu:
		return "in-situ"
	case InTransit:
		return "in-transit"
	case Hybrid:
		return "hybrid"
	default:
		return "post-processing"
	}
}

// Flag returns the pipeline's short CLI name (greenviz -pipeline).
func (p Pipeline) Flag() string {
	switch p {
	case InSitu:
		return "insitu"
	case InTransit:
		return "intransit"
	case Hybrid:
		return "hybrid"
	default:
		return "post"
	}
}

// Pipelines lists every pipeline, in declaration order. The CLI
// derives its -pipeline help and dispatch from this list so new
// pipelines cannot be forgotten.
func Pipelines() []Pipeline {
	return []Pipeline{PostProcessing, InSitu, InTransit, Hybrid}
}

// PipelineByFlag resolves a CLI short name; the error lists the valid
// names in declaration order.
func PipelineByFlag(name string) (Pipeline, error) {
	var flags []string
	for _, p := range Pipelines() {
		if p.Flag() == name {
			return p, nil
		}
		flags = append(flags, p.Flag())
	}
	return 0, fmt.Errorf("core: unknown pipeline %q (valid: %v)", name, flags)
}

// Clustered reports whether the pipeline needs a two-node Cluster (a
// simulation and a staging node) rather than a cluster of one.
func (p Pipeline) Clustered() bool { return p == InTransit || p == Hybrid }

// The phases the pipeline programs time, named after Fig. 4's legend:
// StageSimulation advances one output iteration, StageWrite stores one
// checkpoint and StageRead reads one back cold, and StageViz is one
// visualization event. StageRecovery covers fault handling beyond
// plain retries: the re-simulation of a checkpoint that could not be
// recovered from storage. StageNet is the network-transfer stage of
// the in-transit and hybrid pipelines.
const (
	StageSimulation = "simulation"
	StageWrite      = "nnwrite"
	StageRead       = "nnread"
	StageViz        = "visualization"
	StageRecovery   = "recovery"
	StageNet        = "nettransfer"
)

// StageNames returns the canonical reporting order of the stage
// phases — consumers printing per-stage times should iterate this
// instead of hard-coding names, so new stages appear automatically.
func StageNames() []string {
	return []string{StageSimulation, StageWrite, StageRead, StageViz, StageNet, StageRecovery}
}

// Simulator is the proxy-application interface the pipelines drive.
// internal/heat (the paper's app) and internal/ocean (a shallow-water
// second proxy) both implement it.
type Simulator interface {
	// Step advances n solver sub-steps of real computation.
	Step(n int)
	// Field returns the scalar field the visualizer renders.
	Field() *field.Grid
	// Steps returns cumulative sub-steps taken.
	Steps() uint64
	// Time returns simulated physical time.
	Time() float64
	// CellUpdates converts n sub-steps into the work unit the platform
	// charges for.
	CellUpdates(n int) uint64
}

// newSimulator builds the configured application (default: the paper's
// heat proxy).
func newSimulator(cfg AppConfig) Simulator {
	if cfg.NewSimulator != nil {
		return cfg.NewSimulator()
	}
	return heat.NewSolver(cfg.Heat)
}

// CaseStudy is one application configuration of §IV-C: fifty timesteps
// with I/O + visualization every IOInterval iterations.
type CaseStudy struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	IOInterval int    `json:"io_interval"`
}

// CaseStudies returns the paper's three configurations: I/O every
// iteration, every other iteration, every eighth iteration.
func CaseStudies() []CaseStudy {
	return []CaseStudy{
		{Name: "Case Study 1", Iterations: 50, IOInterval: 1},
		{Name: "Case Study 2", Iterations: 50, IOInterval: 2},
		{Name: "Case Study 3", Iterations: 50, IOInterval: 8},
	}
}

// AppConfig configures the proxy application and its visualization.
type AppConfig struct {
	// Heat is the solver configuration (grid, sources, boundary) used
	// when NewSimulator is nil.
	Heat heat.Params
	// NewSimulator, when set, supplies a different proxy application
	// (e.g. the ocean shallow-water solver).
	NewSimulator func() Simulator
	// SubstepsPerIteration is the number of solver sub-steps one output
	// iteration represents; it fixes the virtual compute cost of an
	// iteration (2.18 s on the calibrated node).
	SubstepsPerIteration int
	// RealSubsteps is how many of those sub-steps are actually computed
	// per iteration (the rest are charged but not executed). Lower
	// values speed up host execution without changing virtual timing;
	// set equal to SubstepsPerIteration for full fidelity.
	RealSubsteps int
	// CheckpointPayload is the bulk time-history payload written per
	// checkpoint on top of the field snapshot (~188 MiB reproduces the
	// paper's 30 %/27 % write/read shares for case study 1).
	CheckpointPayload units.Bytes
	// InsituPayload is the reduced data product the in-situ pipeline
	// flushes with each frame for provenance.
	InsituPayload units.Bytes
	// Render configures the per-event visualization.
	Render viz.RenderOptions
	// InsituNoSync skips the per-frame fsync of the in-situ pipeline
	// (ablation knob: live monitoring without durability).
	InsituNoSync bool
	// CompressInsitu DEFLATE-compresses the in-situ reduced data
	// product before flushing it (Wang et al. [22]): the achieved ratio
	// is measured on the real field each event, and the compression CPU
	// time is charged.
	CompressInsitu bool
	// CinemaVariants, when positive, makes the in-situ pipeline render
	// that many extra parameterized views per event (different isoline
	// sets and colormaps) into an image database — the image-based
	// approach of Ahrens et al. [12], which restores post-hoc
	// exploration from an in-situ run.
	CinemaVariants int
	// AsyncCheckpoint makes the post-processing pipeline buffer its
	// checkpoints instead of fsyncing each one: the page cache drains
	// them in the background, overlapped with subsequent simulation
	// iterations, and only the phase barrier syncs. An "alternative
	// optimization" in the spirit of the paper's conclusion.
	AsyncCheckpoint bool
	// RetainFrames keeps encoded PNG frames in the result for
	// inspection; timing is unaffected.
	RetainFrames bool
	// Store, when set, redirects the post-processing pipeline's
	// checkpoints to an alternative backend (e.g. a parallel
	// filesystem); nil uses the node's local filesystem.
	Store CheckpointStore
	// Faults, when set and enabled, injects storage faults for this run:
	// Run builds one deterministic injector from it and installs it on
	// the node's storage stack (and, via FaultSink, on a custom Store).
	// Nil or all-zero rates leave every output byte-identical to a
	// fault-free run.
	Faults *fault.Config
	// Telemetry, when set, is attached to every run's telemetry bus —
	// after the stock accountants — and receives the full event stream:
	// run and stage boundaries, energy samples, fault injections, and
	// retry attempts (the service daemon streams these as per-stage job
	// events and metrics). Nil — the default — is zero-cost, and a
	// consumer never changes a run's output.
	Telemetry telemetry.Consumer
}

// RecoveryStats accounts the fault handling one run performed; the
// stagegraph engine's ledger accumulates it.
type RecoveryStats = stagegraph.RecoveryStats

// FaultSink is implemented by checkpoint stores that can route an
// injected-fault stream into their own storage stack (the pfs store
// forwards it to its servers). Run installs the run's injector on the
// node directly and on a custom Store through this interface.
type FaultSink interface {
	SetFaults(*fault.Injector)
}

// DefaultAppConfig returns the paper's configuration, calibrated per
// DESIGN.md §3.
func DefaultAppConfig() AppConfig {
	return AppConfig{
		Heat:                 heat.DefaultParams(),
		SubstepsPerIteration: 1536,
		RealSubsteps:         128,
		CheckpointPayload:    188 * units.MiB,
		InsituPayload:        64 * units.MiB,
		Render: viz.RenderOptions{
			Width: 512, Height: 512,
			Isolines: []float64{250, 500, 750},
		},
	}
}

func validate(cs CaseStudy, cfg *AppConfig) {
	if cs.Iterations <= 0 || cs.IOInterval <= 0 {
		panic(fmt.Sprintf("core: case study %+v needs positive iterations and interval", cs))
	}
	if cfg.SubstepsPerIteration <= 0 {
		panic("core: SubstepsPerIteration must be positive")
	}
	if cfg.RealSubsteps <= 0 || cfg.RealSubsteps > cfg.SubstepsPerIteration {
		panic("core: RealSubsteps must be in [1, SubstepsPerIteration]")
	}
	if cfg.CheckpointPayload < 0 || cfg.InsituPayload < 0 {
		panic("core: negative payload")
	}
}
