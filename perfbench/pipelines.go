package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	greenviz "repro"
	"repro/internal/checkpoint"
	"repro/internal/viz"
)

// pipeSpec is one pipeline run of the mix.
type pipeSpec struct {
	Pipeline greenviz.Pipeline
	Case     int // 1..3
	App      string
	Device   string
	Seed     uint64 // node (or cluster) seed
}

func (s pipeSpec) String() string {
	return fmt.Sprintf("%s/case%d/%s/%s/seed%d", s.Pipeline.Flag(), s.Case, s.App, s.Device, s.Seed)
}

// heatRuns fixes, per case study, how many of a block's four pipelines
// run the heat app; the rest run ocean, which costs about half again as
// much host time. Case 2 is lopsided on purpose: with equal classes the
// median run would sit exactly on the boundary between case-2 heat and
// case-2 ocean runs and jump between them from seed to seed; this way
// the median falls inside the case-2 ocean runs and the p90 inside the
// case-1 ocean runs.
var heatRuns = map[int]int{1: 2, 2: 1, 3: 2}

// pipelineBlock returns block b of the seed's mix: every pipeline ×
// case pair once, then the same specs again, shuffled together. The
// seed picks which pipelines run which app (heatRuns fixes how many),
// which device each spec uses (each device equally often), and the
// node seeds. Every block holds the same case × app classes, so it
// costs the same host work whatever the seed and whole blocks compare
// across seeds; every spec runs twice, so repeats can be checked.
func pipelineBlock(seed uint64, b int) []pipeSpec {
	rng := rand.New(rand.NewPCG(seed, uint64(b)))
	pipelines := greenviz.Pipelines()
	cases := len(greenviz.CaseStudies())
	var devices []string
	for len(devices) < len(pipelines)*cases {
		devices = append(devices, greenviz.DeviceFlags()...)
	}
	rng.Shuffle(len(devices), func(i, j int) { devices[i], devices[j] = devices[j], devices[i] })
	var specs []pipeSpec
	for c := 1; c <= cases; c++ {
		for i, k := range rng.Perm(len(pipelines)) {
			app := "ocean"
			if i < heatRuns[c] {
				app = "heat"
			}
			specs = append(specs, pipeSpec{
				Pipeline: pipelines[k], Case: c, App: app,
				Device: devices[len(specs)],
				Seed:   1 + rng.Uint64N(1<<20),
			})
		}
	}
	specs = append(specs, specs...)
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// minRuns is the fewest pipeline runs a measurement takes, so that ten
// lie beyond the p90.
const minRuns = 100

// setupEvery is how many runs apart the closed loop times a set-up:
// about 30 set-ups a measurement, at under 2 % of its host time.
const setupEvery = 4

// pipelineConfig is the CLI's pipeline-mode configuration for an app.
func pipelineConfig(app string) (greenviz.Config, error) {
	cfg := greenviz.DefaultConfig()
	cfg.RealSubsteps = 16 // the CLI's -real-substeps default
	return cfg, greenviz.ConfigureApp(&cfg, app)
}

// pipeRun is one finished run.
type pipeRun struct {
	spec    pipeSpec
	traced  bool
	elapsed time.Duration
	// Set by the closed loop: the client, the probe it ran just before
	// the run, and the set-up it timed before it (0 if none).
	client int
	probe  float64
	setup  time.Duration
	report []byte // the result's JSON encoding, as the daemon serves it
	result *greenviz.Result
	// Set on traced runs only.
	diskRequests uint64
	field        *greenviz.Field // the solver's final field
	pngBytes     int             // its frame's encoded size
}

// pipelineSetup is one set-up of the pipelines workload: the seed's
// first block, a node and a cluster for every device, and the frame and
// PNG encoder pools warmed with one frame of each app's initial field.
func pipelineSetup(seed uint64) error {
	_ = pipelineBlock(seed, 0)
	for _, dev := range greenviz.DeviceFlags() {
		platform, err := greenviz.PlatformByFlag(dev)
		if err != nil {
			return err
		}
		greenviz.NewNode(platform, seed)
		greenviz.NewCluster(platform, greenviz.TenGigE(), seed)
	}
	for _, app := range greenviz.AppFlags() {
		cfg, err := pipelineConfig(app)
		if err != nil {
			return err
		}
		img, _ := viz.Render(newSimulator(cfg).Field(), cfg.Render)
		_, err = viz.EncodePNG(img)
		viz.ReleaseFrame(img)
		if err != nil {
			return err
		}
	}
	return nil
}

// newSimulator builds the solver a run of cfg uses: its own, or the
// default heat solver.
func newSimulator(cfg greenviz.Config) greenviz.Simulator {
	if cfg.NewSimulator != nil {
		return cfg.NewSimulator()
	}
	return greenviz.NewHeatSolver(cfg.Heat)
}

// runPipeline executes one spec on a fresh node or cluster. With rec
// set, it records the run, its stages and its solver steps as spans of
// one operation.
func runPipeline(s pipeSpec, rec *Recorder) (pipeRun, error) {
	cfg, err := pipelineConfig(s.App)
	if err != nil {
		return pipeRun{}, err
	}
	platform, err := greenviz.PlatformByFlag(s.Device)
	if err != nil {
		return pipeRun{}, err
	}
	cs := greenviz.CaseStudies()[s.Case-1]
	out := pipeRun{spec: s, traced: rec != nil}

	var tr *runTracer
	if rec != nil {
		tr = newRunTracer(rec, &cfg)
	}
	start := time.Now()
	root := tr.begin("core.run")
	var disk func() uint64
	if s.Pipeline.Clustered() {
		c := greenviz.NewCluster(platform, greenviz.TenGigE(), s.Seed)
		out.result = greenviz.RunOnCluster(c, s.Pipeline, cs, cfg)
		disk = func() uint64 { return requests(c.Sim.DiskStats()) + requests(c.Staging.DiskStats()) }
	} else {
		n := greenviz.NewNode(platform, s.Seed)
		out.result = greenviz.Run(n, s.Pipeline, cs, cfg)
		disk = func() uint64 { return requests(n.DiskStats()) }
	}
	tr.end(root)
	out.elapsed = time.Since(start)

	var buf bytes.Buffer
	if err := out.result.EncodeJSON(&buf); err != nil {
		return out, err
	}
	out.report = buf.Bytes()
	if tr != nil {
		out.diskRequests = disk()
		out.field = tr.finalField()
	}
	return out, nil
}

func requests(st greenviz.DiskStats) uint64 { return st.Reads + st.Writes }

// runTracer turns one run's telemetry stream and solver steps into
// spans: StageStart opens a span under the innermost open one,
// StageDone closes it, and each solver Step is a span under the stage
// that called it. A run executes on one goroutine, so the stack needs
// no lock.
type runTracer struct {
	rec   *Recorder
	op    int
	stack []int
	sims  []greenviz.Simulator
}

// newRunTracer wires a tracer into cfg through the two seams the
// config exposes: its telemetry consumer and its simulator constructor.
func newRunTracer(rec *Recorder, cfg *greenviz.Config) *runTracer {
	t := &runTracer{rec: rec, op: rec.NewOp()}
	inner := *cfg
	cfg.NewSimulator = func() greenviz.Simulator {
		s := newSimulator(inner)
		t.sims = append(t.sims, s)
		return timedSim{Simulator: s, t: t}
	}
	cfg.Telemetry = greenviz.TelemetryConsumerFunc(func(ev greenviz.TelemetryEvent) {
		switch ev.Kind {
		case greenviz.TelemetryStageStart:
			t.begin("stage." + ev.Stage)
		case greenviz.TelemetryStageDone:
			t.end(t.stack[len(t.stack)-1])
		}
	})
	return t
}

// begin opens a span under the innermost open span; nil-safe.
func (t *runTracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := t.rec.Begin(t.op, parent, name)
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost span, which must be id; nil-safe.
func (t *runTracer) end(id int) {
	if t == nil {
		return
	}
	if top := t.stack[len(t.stack)-1]; top != id {
		panic(fmt.Sprintf("perfbench: span %d closed while %d is innermost", id, top))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.rec.End(id)
}

// finalField copies the field of the run's first (main) solver.
func (t *runTracer) finalField() *greenviz.Field {
	if len(t.sims) == 0 {
		return nil
	}
	g := *t.sims[0].Field()
	g.Data = append([]float64(nil), g.Data...)
	return &g
}

// timedSim times each solver Step as a span.
type timedSim struct {
	greenviz.Simulator
	t *runTracer
}

func (s timedSim) Step(n int) {
	id := s.t.begin("solver.step")
	s.Simulator.Step(n)
	s.t.end(id)
}

// timeKernels times the viz and checkpoint kernels on a captured field,
// as the run's own visualization and checkpoint stages call them.
func timeKernels(rec *Recorder, app string, g *greenviz.Field) (pngBytes int, err error) {
	cfg, err := pipelineConfig(app)
	if err != nil {
		return 0, err
	}
	op := rec.NewOp()
	root := rec.Begin(op, 0, "kernels")
	defer rec.End(root)

	id := rec.Begin(op, root, "viz.render")
	img, _ := viz.Render(g, cfg.Render)
	rec.End(id)

	id = rec.Begin(op, root, "viz.encode_png")
	png, err := viz.EncodePNG(img)
	rec.End(id)
	viz.ReleaseFrame(img)
	if err != nil {
		return 0, err
	}

	var enc checkpoint.Encoder
	id = rec.Begin(op, root, "checkpoint.encode")
	blob := enc.EncodeTo(nil, g, 1, 0, cfg.CheckpointPayload)
	rec.End(id)
	if len(blob) != checkpoint.HeaderSize+8*len(g.Data) {
		return 0, fmt.Errorf("checkpoint prefix is %d bytes, want %d", len(blob), checkpoint.HeaderSize+8*len(g.Data))
	}
	return len(png), nil
}

// pipelineChecks accumulates the cross-run output checks.
type pipelineChecks struct {
	mu        sync.Mutex
	reports   map[string][]byte // spec → first report
	checksums map[string]uint64 // case/app → first in-situ or post checksum
}

// check compares a run against earlier runs of the same spec, and
// post-processing and in-situ runs of one case and app against each
// other: both render the same solver states, so their frames match.
func (c *pipelineChecks) check(r pipeRun, o *Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := r.spec.String()
	if prev, ok := c.reports[key]; !ok {
		c.reports[key] = r.report
	} else if !bytes.Equal(prev, r.report) {
		o.fail("%s: repeated run gave a different result", key)
	}
	if p := r.spec.Pipeline; p == greenviz.PostProcessing || p == greenviz.InSitu {
		k := fmt.Sprintf("case%d/%s", r.spec.Case, r.spec.App)
		if prev, ok := c.checksums[k]; !ok {
			c.checksums[k] = r.result.FrameChecksum
		} else if prev != r.result.FrameChecksum {
			o.fail("%s: frame checksum %x, want %x as for every post/in-situ %s run", key, r.result.FrameChecksum, prev, k)
		}
	}
	if r.result.Frames == 0 {
		o.fail("%s: rendered no frames", key)
	}
}

// runPipelines is the pipelines workload: Env.Clients closed-loop
// clients take pipeline runs from the seed's blocks until the time is
// up, finishing the block in progress.
func runPipelines(env Env) (Outcome, error) {
	o := Outcome{E2E: map[string]Metric{}, Detail: map[string]Metric{}, Layers: map[string]Metric{}}
	checks := &pipelineChecks{reports: map[string][]byte{}, checksums: map[string]uint64{}}

	// Warm-up, untimed: one short in-situ run per app takes every code
	// path once.
	for _, app := range greenviz.AppFlags() {
		r, err := runPipeline(pipeSpec{Pipeline: greenviz.InSitu, Case: 3, App: app, Device: "hdd", Seed: env.Seed}, nil)
		if err != nil {
			return o, err
		}
		checks.check(r, &o)
	}

	var (
		mu       sync.Mutex
		runs     []pipeRun
		queue    []pipeSpec
		traceOn  []bool
		block    int
		firstErr error
	)
	deadline := time.Now().Add(time.Duration(env.Seconds) * time.Second)
	// next hands out the next run: a new block only while time remains
	// or fewer than minRuns were handed out. Every setupEvery-th run's
	// client first times one set-up, so the set-ups spread over the run
	// instead of falling into one spell of host speed. On traced runs the
	// first of each spec's two runs in a block is traced and the second
	// is not, which pairs them for the tracing overhead.
	handed := 0
	next := func() (s pipeSpec, traced, setup, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			if firstErr != nil || (!time.Now().Before(deadline) && handed >= minRuns) {
				return pipeSpec{}, false, false, false
			}
			queue = pipelineBlock(env.Seed, block)
			block++
			seen := map[string]bool{}
			traceOn = traceOn[:0]
			for _, s := range queue {
				traceOn = append(traceOn, env.Rec != nil && !seen[s.String()])
				seen[s.String()] = true
			}
		}
		s, traced = queue[0], traceOn[0]
		queue, traceOn = queue[1:], traceOn[1:]
		setup = handed%setupEvery == 0
		handed++
		return s, traced, setup, true
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < env.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr := newProbe()
			for {
				s, traced, setup, ok := next()
				if !ok {
					return
				}
				probe := pr.run()
				var setupTime time.Duration
				var err error
				if setup {
					t0 := time.Now()
					err = pipelineSetup(env.Seed)
					setupTime = time.Since(t0)
				}
				var rec *Recorder
				if traced {
					rec = env.Rec
				}
				var r pipeRun
				if err == nil {
					r, err = runPipeline(s, rec)
				}
				r.client, r.probe, r.setup = c, probe, setupTime
				if err == nil && r.field != nil {
					r.pngBytes, err = timeKernels(env.Rec, s.App, r.field)
					r.field = nil
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if firstErr != nil {
		return o, firstErr
	}

	o.Attempted = len(runs)
	var lat []float64
	var tracedMS, untracedMS float64
	for _, r := range runs {
		checks.check(r, &o)
		lat = append(lat, ms(r.elapsed))
		if r.traced {
			tracedMS += ms(r.elapsed)
		} else {
			untracedMS += ms(r.elapsed)
		}
	}

	// The gated figures are at the reference host's speed: each run, and
	// each set-up, is normalized by its client's probes around it.
	var normMS, setups, rawSetups, probes []float64
	var normSum float64
	for c := 0; c < env.Clients; c++ {
		var mine []pipeRun
		var cp []float64
		for _, r := range runs {
			if r.client == c {
				mine = append(mine, r)
				cp = append(cp, r.probe)
			}
		}
		probes = append(probes, cp...)
		for i, f := range hostFactors(cp) {
			r := mine[i]
			normMS = append(normMS, ms(r.elapsed)*f)
			normSum += ms(r.elapsed) * f
			if r.setup > 0 {
				setups = append(setups, r.setup.Seconds()*f)
				rawSetups = append(rawSetups, r.setup.Seconds())
			}
		}
	}
	o.E2E["setup_s"] = Metric{median(setups), "s"}
	o.E2E["throughput_per_s"] = Metric{float64(env.Clients*len(runs)) / (normSum / 1000), "1/s"}
	o.E2E["latency_ms"] = Metric{percentile(normMS, 50), "ms"}
	o.E2E["latency_tail_ms"] = Metric{percentile(normMS, 90), "ms"}
	o.Detail["raw_setup_s"] = Metric{median(rawSetups), "s"}
	o.Detail["probe_ms"] = Metric{median(probes), "ms"}

	perS := float64(len(runs)) / elapsed.Seconds()
	p50 := percentile(lat, 50)
	p90 := percentile(lat, 90)
	warnTail("runs", len(lat), 90)
	o.Detail["pipeline_runs_per_s"] = Metric{perS, "runs/s"}
	o.Detail["run_p50_ms"] = Metric{p50, "ms"}
	o.Detail["run_p90_ms"] = Metric{p90, "ms"}
	o.Detail["runs"] = Metric{float64(len(runs)), "count"}

	if env.Rec != nil {
		pipelineLayers(env.Rec.Spans(), runs, &o)
		o.Layers["trace.overhead_ratio"] = Metric{ratio(tracedMS, untracedMS), "ratio"}
		gcLayers(before, after, len(runs), &o)
	}
	return o, nil
}

// pipelineLayers derives the per-layer metrics of the traced runs:
// per-run means of run, stage and solver time, and per-call means of
// the kernels timed on the captured fields.
func pipelineLayers(spans []Span, runs []pipeRun, o *Outcome) {
	var traced, frames, disk, png float64
	for _, r := range runs {
		if r.traced {
			traced++
			frames += float64(r.result.Frames)
			disk += float64(r.diskRequests)
			png += float64(r.pngBytes)
		}
	}
	self := SelfByName(spans)
	perRun := func(d time.Duration) float64 { return ratio(ms(d), traced) }
	o.Layers["core.run_ms"] = Metric{perRun(TotalByName(spans)["core.run"]), "ms"}
	o.Layers["core.self_ms"] = Metric{perRun(self["core.run"]), "ms"}
	for _, st := range []string{"simulation", "nnwrite", "nnread", "visualization", "nettransfer"} {
		o.Layers["stage."+st+".self_ms"] = Metric{perRun(self["stage."+st]), "ms"}
	}
	o.Layers["solver.step_ms"] = Metric{perRun(self["solver.step"]), "ms"}
	for _, k := range []string{"viz.render", "viz.encode_png", "checkpoint.encode"} {
		o.Layers[k+"_ms"] = Metric{mean(DurationsOf(spans, k)), "ms"}
	}
	o.Layers["viz.frames"] = Metric{ratio(frames, traced), "count"}
	o.Layers["viz.png_kib_per_frame"] = Metric{ratio(png, traced) / 1024, "KiB"}
	o.Layers["storage.disk_requests"] = Metric{ratio(disk, traced), "count"}
}

// gcLayers reports the Go runtime's allocation and collection work per
// operation between two MemStats snapshots.
func gcLayers(before, after runtime.MemStats, ops int, o *Outcome) {
	o.Layers["gc.alloc_mib_per_op"] = Metric{ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(ops)), "MiB"}
	o.Layers["gc.cycles_per_op"] = Metric{ratio(float64(after.NumGC-before.NumGC), float64(ops)), "count"}
}
