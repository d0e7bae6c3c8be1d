package core

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core/stagegraph"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/viz"
)

// runner carries shared state for one pipeline execution: the
// application state the programs close over. Stage timing and
// retry/backoff live in the stagegraph engine.
type runner struct {
	c      *Cluster
	n      *node.Node // c.Sim: the simulation node, the engine's metered clock
	cfg    AppConfig
	cs     CaseStudy
	solver Simulator
	res    *RunResult
	hash   interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
	frame int

	faults *fault.Injector
}

// Run executes one single-node pipeline (post-processing or in-situ)
// on a node — a cluster of one — and returns its measurements. The
// node should be freshly created (or at least disk-quiet); a run
// leaves its checkpoint and frame files on the node's filesystem.
func Run(n *node.Node, p Pipeline, cs CaseStudy, cfg AppConfig) *RunResult {
	return RunOnCluster(&Cluster{Engine: n.Engine, Sim: n}, p, cs, cfg)
}

// RunOnCluster executes pipeline p on platform c and returns its
// measurements. The platform must have the nodes p needs: one for
// post-processing and in-situ, two (a simulation and a staging node)
// for in-transit and hybrid; NewClusterFor builds the right one.
//
// Every run is observed the same way: one telemetry bus, one stage
// ledger, the wall meter and RAPL on the simulation node, and one
// fault injector shared by every node. Energy and disk traffic sum
// over the nodes.
func RunOnCluster(c *Cluster, p Pipeline, cs CaseStudy, cfg AppConfig) *RunResult {
	nodes := c.nodes()
	if p.Clustered() != (len(nodes) == 2) {
		panic(fmt.Sprintf("core: pipeline %s cannot run on a %d-node platform", p, len(nodes)))
	}
	validate(cs, &cfg)
	n := c.Sim
	r := &runner{
		c:      c,
		n:      n,
		cfg:    cfg,
		cs:     cs,
		solver: newSimulator(cfg),
		hash:   fnv.New64a(),
	}
	// One telemetry bus carries the whole run: the engine's stage
	// boundaries and retries, the fault injector's firings, and the
	// instrument samples all fan out to the accountants attached below.
	tel := telemetry.NewBus()
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		r.faults = fault.New(*cfg.Faults)
		r.faults.AttachTelemetry(tel)
		for _, nd := range nodes {
			nd.InstallFaults(r.faults)
		}
		if sink, ok := cfg.Store.(FaultSink); ok {
			sink.SetFaults(r.faults)
		}
	}
	// NewInstruments attaches the trace recorder of instrument series.
	inst := n.NewInstruments(fmt.Sprintf("%s/%s", p, cs.Name), tel)
	ledger := stagegraph.NewLedger()
	tel.Attach(ledger)
	// The caller's consumer (progress streaming, cancellation) attaches
	// last so the stock accountants have already seen each event when it
	// fires — and a cancellation panic never leaves them half-updated.
	if cfg.Telemetry != nil {
		tel.Attach(cfg.Telemetry)
	}
	r.res = &RunResult{
		Pipeline:    p,
		Case:        cs,
		Profile:     inst.Profile,
		StageTime:   ledger.StageTime,
		StageEnergy: ledger.StageEnergy,
	}
	eng := stagegraph.New(n, tel)

	startT := c.Engine.Now()
	e0 := make([]units.Joules, len(nodes))
	d0 := make([]storage.DiskStats, len(nodes))
	for i, nd := range nodes {
		e0[i], d0[i] = nd.SystemEnergy(), nd.DiskStats()
	}
	inst.Start()

	eng.Run(p.String(), r.program(p))

	c.drain()
	inst.Stop()

	res := r.res
	res.ExecTime = c.Engine.Now() - startT
	energy := make([]units.Joules, len(nodes))
	for i, nd := range nodes {
		energy[i] = nd.SystemEnergy() - e0[i]
		res.Energy += energy[i]
		d1 := nd.DiskStats()
		res.BytesWritten += d1.BytesWritten - d0[i].BytesWritten
		res.BytesRead += d1.BytesRead - d0[i].BytesRead
	}
	if c.Staging != nil {
		res.SimEnergy, res.StagingEnergy = energy[0], energy[1]
		res.StagingBusy = c.stagingCPU.BusyTime()
	}
	res.MeasuredEnergy, res.AvgPower, res.PeakPower = meterMetrics(inst.Profile)
	res.FrameChecksum = r.hash.Sum64()
	res.Faults = r.faults.Stats()
	res.Recovery = ledger.Recovery
	return res
}

// simulateIteration advances one output iteration: RealSubsteps of real
// physics, the full SubstepsPerIteration of charged compute.
func (r *runner) simulateIteration(eng *stagegraph.Engine) {
	eng.Do(StageSimulation, func() {
		r.solver.Step(r.cfg.RealSubsteps)
		r.n.Compute(r.solver.CellUpdates(r.cfg.SubstepsPerIteration))
	})
}

// renderAnnotatedFrame renders a field with opts and stamps the frame
// footer (capture step/time) and a colorbar over [lo, hi] — the frame
// a scientist monitors. Equal lo and hi label the field's own range.
// Every frame goes through it: the primary frame of every pipeline
// (with the config's range) and of the in-transit staging path, and
// each cinema variant, so identical solver states yield byte-identical
// frames.
func renderAnnotatedFrame(opts viz.RenderOptions, lo, hi float64, g *field.Grid, step uint64, simTime float64) ([]byte, viz.RenderStats) {
	img, stats := viz.Render(g, opts)
	cm := opts.Colormap
	if cm == nil {
		cm = viz.Inferno()
	}
	if lo == hi {
		lo, hi = g.MinMax()
	}
	viz.Annotate(img, viz.AnnotateOptions{
		Step: step, SimTime: simTime, Colormap: cm, Lo: lo, Hi: hi,
	})
	png, err := viz.EncodePNG(img)
	viz.ReleaseFrame(img)
	if err != nil {
		panic(fmt.Sprintf("core: PNG encode failed: %v", err))
	}
	return png, stats
}

// renderFrame renders + annotates, charges the render cost, and
// returns the encoded PNG.
func (r *runner) renderFrame(g *field.Grid, step uint64, simTime float64) []byte {
	png, stats := renderAnnotatedFrame(r.cfg.Render, r.cfg.Render.Lo, r.cfg.Render.Hi, g, step, simTime)
	r.n.Render(stats.Pixels, stats.ContourCells, units.Bytes(len(png)))
	r.countFrame(png)
	return png
}

// countFrame accounts one encoded frame, wherever it was rendered: it
// feeds the frame checksum, counts the frame, and keeps it when the
// config retains frames.
func (r *runner) countFrame(png []byte) {
	r.hash.Write(png) //nolint:errcheck // fnv cannot fail
	r.res.Frames++
	if r.cfg.RetainFrames {
		r.res.FramePNGs = append(r.res.FramePNGs, png)
	}
}

// writeFrameFile stores an encoded frame on the filesystem. Nothing
// reads frame files back, so the write charges the frame's size
// without retaining its bytes. A write that exhausts the retry budget
// leaves the frame absent from disk (it still counts toward Frames and
// the checksum: the render happened).
func (r *runner) writeFrameFile(eng *stagegraph.Engine, png []byte) *storage.File {
	f := r.n.FS.Create(fmt.Sprintf("frame-%04d.png", r.frame))
	r.frame++
	eng.WriteRetry(func() error { return f.WriteSparseAt(0, units.Bytes(len(png))) })
	return f
}

// resimulate recomputes the field of output iteration iter by stepping
// a fresh solver from the initial conditions, charging the same compute
// cost per iteration as the original pass. Determinism makes the
// recovered field bit-identical to the one the lost checkpoint held.
func (r *runner) resimulate(iter int) (*field.Grid, uint64, float64) {
	solver := newSimulator(r.cfg)
	for i := 1; i <= iter; i++ {
		solver.Step(r.cfg.RealSubsteps)
		r.n.Compute(solver.CellUpdates(r.cfg.SubstepsPerIteration))
	}
	return solver.Field(), solver.Steps(), solver.Time()
}

// renderCinemaVariants renders the image-database views of one event
// (Ahrens et al. [12]): real renders under varied visualization
// parameters, stored alongside the primary frame (size only, like
// frame files). They restore post-hoc exploration without shipping the
// raw data. The renders run inside the visualization stage.
func (r *runner) renderCinemaVariants(eng *stagegraph.Engine, event int) {
	cfg := r.cfg
	if cfg.CinemaVariants <= 0 {
		return
	}
	g := r.solver.Field()
	lo, hi := g.MinMax()
	if lo == hi {
		hi = lo + 1
	}
	maps := []*viz.Colormap{viz.Inferno(), viz.CoolWarm(), viz.Grayscale()}
	for k := 0; k < cfg.CinemaVariants; k++ {
		opts := cfg.Render
		opts.Colormap = maps[k%len(maps)]
		// Sweep the isoline level across the field range per variant.
		level := lo + (hi-lo)*float64(k+1)/float64(cfg.CinemaVariants+1)
		opts.Isolines = []float64{level}
		png, stats := renderAnnotatedFrame(opts, lo, hi, g, r.solver.Steps(), r.solver.Time())
		r.n.Render(stats.Pixels, stats.ContourCells, units.Bytes(len(png)))
		r.res.CinemaFrames++
		r.n.WithIO(func() {
			f := r.n.FS.Create(fmt.Sprintf("cinema-%04d-%02d.png", event, k))
			eng.WriteRetry(func() error { return f.WriteSparseAt(0, units.Bytes(len(png))) })
		})
	}
}
