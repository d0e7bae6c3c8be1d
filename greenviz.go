package greenviz

import (
	"context"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/fio"
	"repro/internal/heat"
	"repro/internal/netio"
	"repro/internal/node"
	"repro/internal/ocean"
	"repro/internal/pfs"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/viz"
)

// Re-exported quantity types. All durations are virtual seconds.
type (
	// Seconds is a span of virtual time.
	Seconds = units.Seconds
	// Watts is instantaneous power.
	Watts = units.Watts
	// Joules is energy.
	Joules = units.Joules
	// Bytes is a data size.
	Bytes = units.Bytes
)

// Size constants.
const (
	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB
)

// Platform describes a simulated machine: hardware constants, power
// models, storage stack, and workload-cost calibration. Setting NVRAM
// puts a 16 GiB PCIe NVRAM burst buffer, which drains to the disk after
// 2 s of rest, in front of the disk.
type Platform = node.Profile

// SandyBridge returns the paper's platform (Table I), calibrated
// against the paper's own measurements (DESIGN.md §3).
func SandyBridge() Platform { return node.SandyBridge() }

// SandyBridgeSSD returns the same node with the HDD replaced by a SATA
// SSD — the paper's Future Work device study.
func SandyBridgeSSD() Platform { return node.SandyBridgeSSD() }

// Node is one simulated machine instance. Create nodes with NewNode;
// equal (platform, seed) pairs produce bit-identical runs.
type Node = node.Node

// NewNode instantiates a platform. The seed drives every stochastic
// element (disk rotation, meter noise, OS jitter).
func NewNode(p Platform, seed uint64) *Node { return node.New(p, seed) }

// Pipeline selects a visualization pipeline.
type Pipeline = core.Pipeline

// The two pipelines the paper compares (its Fig. 2), plus the two
// clustered pipelines of the Future Work study.
const (
	// PostProcessing simulates, writes checkpoints to disk, then reads
	// them back and renders them in a separate phase.
	PostProcessing = core.PostProcessing
	// InSitu renders alongside the simulation and flushes frames plus a
	// reduced data product.
	InSitu = core.InSitu
	// InTransit ships each event's data to a staging node that renders
	// concurrently (needs a two-node Cluster).
	InTransit = core.InTransit
	// Hybrid renders in situ and asynchronously offloads checkpoints to
	// a staging node (needs a two-node Cluster).
	Hybrid = core.Hybrid
)

// Pipelines lists every pipeline in declaration order; CLIs and tools
// should derive pipeline menus from it so new pipelines appear
// automatically.
func Pipelines() []Pipeline { return core.Pipelines() }

// PipelineByFlag resolves a pipeline's short CLI name ("post",
// "insitu", "intransit", "hybrid"); the error lists the valid names.
func PipelineByFlag(name string) (Pipeline, error) { return core.PipelineByFlag(name) }

// StageNames returns the canonical reporting order of the stage
// phases appearing in Result.StageTime.
func StageNames() []string { return core.StageNames() }

// DeviceFlags lists the storage-device short names PlatformByFlag
// resolves, in menu order.
func DeviceFlags() []string { return core.DeviceFlags() }

// PlatformByFlag resolves a device short name ("hdd", "ssd", "raid4",
// "nvram"; empty selects the default HDD) to the paper's platform with
// that storage stack. The CLI and the greenvizd service share this
// resolution, so equal names mean equal machines everywhere.
func PlatformByFlag(device string) (Platform, error) { return core.PlatformByFlag(device) }

// AppFlags lists the proxy-application short names ConfigureApp
// accepts, in menu order.
func AppFlags() []string { return core.AppFlags() }

// ConfigureApp wires the named proxy application ("heat", "ocean";
// empty keeps heat) into a config.
func ConfigureApp(cfg *Config, app string) error { return core.ConfigureApp(cfg, app) }

// CaseStudy is one application configuration (I/O every k iterations).
type CaseStudy = core.CaseStudy

// CaseStudies returns the paper's three configurations (§IV-C):
// I/O+visualization every 1st, 2nd, and 8th iteration of 50.
func CaseStudies() []CaseStudy { return core.CaseStudies() }

// Config holds the proxy-application and visualization configuration.
type Config = core.AppConfig

// DefaultConfig returns the paper's calibrated configuration: a
// 128x128 heat grid, ~188 MiB checkpoints, 512x512 frames with three
// isolines.
func DefaultConfig() Config { return core.DefaultAppConfig() }

// Result captures one pipeline run's measurements: execution time,
// energy, average/peak power, per-stage times, power profiles, and a
// frame checksum.
type Result = core.RunResult

// Run executes one single-node pipeline run (PostProcessing or
// InSitu) on a (typically fresh) node: a cluster of one.
func Run(n *Node, p Pipeline, cs CaseStudy, cfg Config) *Result {
	return core.Run(n, p, cs, cfg)
}

// Comparison pairs both pipelines' runs of one case study and derives
// the paper's head-to-head metrics (Figs. 7-11 and §V-C).
type Comparison = core.Comparison

// Compare validates and pairs a post-processing and an in-situ run.
func Compare(post, insitu *Result) Comparison { return core.Compare(post, insitu) }

// StageCharacterization is the isolated nnread/nnwrite power study
// (Fig. 6, Table II).
type StageCharacterization = core.StageCharacterization

// CharacterizeStages measures the I/O stages in isolation on a fresh
// node; events sets how many checkpoint writes/reads each stage does.
func CharacterizeStages(n *Node, cfg Config, events int) StageCharacterization {
	return core.CharacterizeStages(n, cfg, events)
}

// WorkloadSpec describes an application's I/O for the advisor.
type WorkloadSpec = core.WorkloadSpec

// Advice is the runtime advisor's recommendation (§V-D, Future Work).
type Advice = core.Advice

// Advise predicts the cost of running a workload as-is, after data
// reorganization, and under in-situ, and recommends a strategy.
func Advise(p Platform, w WorkloadSpec) Advice { return core.Advise(p, w) }

// DiskStats aggregates a node's media traffic, including the
// access-pattern classification the advisor observes.
type DiskStats = storage.DiskStats

// ObserveWorkload derives a WorkloadSpec from a node's disk statistics
// (n.DiskStats()) — the observation half of the Future Work runtime.
func ObserveWorkload(name string, st DiskStats) WorkloadSpec {
	return core.ObserveWorkload(name, st)
}

// Simulator is the proxy-application interface the pipelines drive;
// supply your own via Config.NewSimulator.
type Simulator = core.Simulator

// Field is the 2-D scalar field a Simulator exposes for rendering.
type Field = field.Grid

// HeatParams configures the paper's heat-transfer proxy.
type HeatParams = heat.Params

// DefaultHeatParams returns the paper's 128x128 hot-plate setup.
func DefaultHeatParams() HeatParams { return heat.DefaultParams() }

// NewHeatSolver builds the paper's proxy application.
func NewHeatSolver(p HeatParams) Simulator { return heat.NewSolver(p) }

// OceanParams configures the shallow-water second proxy.
type OceanParams = ocean.Params

// DefaultOceanParams returns a 128x128 two-drop basin.
func DefaultOceanParams() OceanParams { return ocean.DefaultParams() }

// NewOceanSolver builds the shallow-water proxy application.
func NewOceanSolver(p OceanParams) Simulator { return ocean.NewSolver(p) }

// RenderOptions configures the per-event visualization.
type RenderOptions = viz.RenderOptions

// Colormap maps normalized scalars to colors.
type Colormap = viz.Colormap

// InfernoColormap returns the default temperature map.
func InfernoColormap() *Colormap { return viz.Inferno() }

// CoolWarmColormap returns the diverging map for signed fields.
func CoolWarmColormap() *Colormap { return viz.CoolWarm() }

// LinkParams describes a cluster interconnect for the multi-node
// (in-transit) experiments.
type LinkParams = netio.LinkParams

// TenGigE returns an effective 10 GbE link model.
func TenGigE() LinkParams { return netio.TenGigE() }

// Cluster is the platform a pipeline runs on: one node, or a
// simulation node and a visualization staging node on one virtual
// clock joined by a link.
type Cluster = core.Cluster

// NewCluster builds a cluster of two identical nodes joined by a link.
func NewCluster(p Platform, link LinkParams, seed uint64) *Cluster {
	return core.NewCluster(p, link, seed)
}

// NewClusterFor builds the platform pipeline p runs on: one fresh node
// for PostProcessing and InSitu, two nodes joined by 10 GbE for
// InTransit and Hybrid.
func NewClusterFor(p Platform, pipeline Pipeline, seed uint64) *Cluster {
	return core.NewClusterFor(p, pipeline, seed)
}

// RunOnCluster executes any pipeline on a platform with the nodes it
// needs (see NewClusterFor). A cluster run splits Energy across
// SimEnergy/StagingEnergy and reports the link traffic in BytesSent.
func RunOnCluster(c *Cluster, p Pipeline, cs CaseStudy, cfg Config) *Result {
	return core.RunOnCluster(c, p, cs, cfg)
}

// CheckpointStore is where the post-processing pipeline keeps its
// checkpoints; set Config.Store to redirect them (e.g. to a parallel
// filesystem built with NewPFS).
type CheckpointStore = core.CheckpointStore

// PFS is a striped parallel filesystem across dedicated storage nodes
// (Future Work).
type PFS = pfs.FileSystem

// NewPFS attaches four storage servers, the paper's node hardware, to
// the client node's virtual clock behind one 10 GbE uplink; files
// stripe across them in 1 MiB chunks. seed drives the servers' disks.
func NewPFS(client *Node, seed uint64) *PFS { return pfs.New(client, seed) }

// NewPFSStore adapts a parallel filesystem to Config.Store.
func NewPFSStore(fs *PFS) CheckpointStore { return pfs.NewStore(fs) }

// FaultConfig sets the per-operation storage fault rates for a run
// (set Config.Faults). The zero value — and a nil Config.Faults —
// disables injection entirely, leaving all outputs byte-identical to a
// fault-free build.
type FaultConfig = fault.Config

// FaultStats counts the injected faults a run absorbed
// (Result.Faults).
type FaultStats = fault.Stats

// RecoveryStats accounts the retries, re-simulations, and backoff a
// run spent absorbing faults (Result.Recovery).
type RecoveryStats = core.RecoveryStats

// TelemetryEvent is one typed event from a run's telemetry stream:
// run/stage boundaries, energy samples, fault injections, and retry
// attempts, all on the shared timeline. Set Config.Telemetry to
// receive the stream; consumers are synchronous and must not retain
// references into the run.
type TelemetryEvent = telemetry.Event

// TelemetryConsumer receives every TelemetryEvent a run emits
// (Config.Telemetry).
type TelemetryConsumer = telemetry.Consumer

// TelemetryConsumerFunc adapts a function to TelemetryConsumer.
type TelemetryConsumerFunc = telemetry.ConsumerFunc

// TelemetryKind discriminates TelemetryEvent payloads.
type TelemetryKind = telemetry.Kind

// The telemetry event kinds.
const (
	TelemetryRunStart      = telemetry.KindRunStart
	TelemetryStageStart    = telemetry.KindStageStart
	TelemetryStageDone     = telemetry.KindStageDone
	TelemetryEnergySample  = telemetry.KindEnergySample
	TelemetryFaultInjected = telemetry.KindFaultInjected
	TelemetryRetryAttempt  = telemetry.KindRetryAttempt
	TelemetryRunEnd        = telemetry.KindRunEnd
	TelemetrySeriesDefine  = telemetry.KindSeriesDefine
)

// ParseFaultSpec parses the CLI's -faults syntax: comma-separated
// key=value pairs among bitrot, readerr, writeerr, latency, drop
// (probabilities), spike, timeout (seconds), and seed. An empty spec
// returns (nil, nil): injection off.
func ParseFaultSpec(spec string) (*FaultConfig, error) { return fault.ParseSpec(spec) }

// FioKind selects one of the four Table III disk tests.
type FioKind = fio.TestKind

// The fio workloads of Table III.
const (
	FioSeqRead   = fio.SeqRead
	FioRandRead  = fio.RandRead
	FioSeqWrite  = fio.SeqWrite
	FioRandWrite = fio.RandWrite
)

// FioConfig configures the disk tests.
type FioConfig = fio.Config

// DefaultFioConfig returns the paper's 4 GiB setup.
func DefaultFioConfig() FioConfig { return fio.DefaultConfig() }

// FioResult is one Table III row.
type FioResult = fio.Result

// RunFio executes one disk test on the node.
func RunFio(n *Node, kind FioKind, cfg FioConfig) FioResult { return fio.Run(n, kind, cfg) }

// RunAllFio executes the four Table III tests in order.
func RunAllFio(n *Node, cfg FioConfig) []FioResult { return fio.RunAll(n, cfg) }

// Report is one regenerated paper artifact (a table or figure).
type Report = experiments.Report

// Experiment pairs an artifact ID ("fig10", "table3", ...) with its
// driver.
type Experiment = experiments.Experiment

// Experiments lists every reproducible artifact in paper order.
func Experiments() []Experiment { return experiments.Registry() }

// Suite caches the runs that experiments share; use one suite when
// regenerating several artifacts. A suite is safe for concurrent use
// and deterministic in (seed, config) at any parallelism.
type Suite = experiments.Suite

// NewSuite creates an experiment suite. A nil cfg selects
// DefaultConfig.
func NewSuite(seed uint64, cfg *Config) *Suite { return experiments.NewSuite(seed, cfg) }

// RunExperiment regenerates one artifact by ID on the given suite.
func RunExperiment(s *Suite, id string) (Report, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return Report{}, err
	}
	return e.Run(s), nil
}

// TimedReport is a regenerated artifact plus its driver's wall time.
type TimedReport = experiments.Timed

// RunAllExperiments regenerates every artifact, up to workers at a
// time, returning reports in registry order. Report bodies are
// byte-identical at any worker count for a given seed.
func RunAllExperiments(ctx context.Context, s *Suite, workers int) ([]TimedReport, error) {
	return s.RunAll(ctx, workers)
}
