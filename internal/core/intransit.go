package core

import (
	"repro/internal/core/stagegraph"
	"repro/internal/netio"
	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/viz"
)

// Cluster is the platform a pipeline runs on: nodes sharing one
// virtual clock. A cluster of one (Staging and Link nil) runs the
// paper's single-node pipelines. The two-node platform of the Future
// Work multi-node study adds a visualization staging node connected to
// the simulation node by a network link. The in-transit pipeline ships
// each I/O event's data over the link; the staging node renders and
// stores frames *concurrently* with the next simulation iterations
// (Bennett et al. [10]; Gamell et al. [24]). The hybrid pipeline
// renders in situ on the simulation node and uses the link only to
// offload checkpoints to the staging disk asynchronously
// (Catalyst-ADIOS2 style).
type Cluster struct {
	Engine *sim.Engine
	// Sim is the simulation node; every pipeline's "node" stages run
	// on it, and the run's instruments meter it.
	Sim     *node.Node
	Staging *node.Node
	Link    *netio.Link

	stagingCPU *sim.Resource
	frameOff   units.Bytes
}

// NewCluster builds two nodes of the given profile on one engine (the
// staging node seeded seed+1) and connects them.
func NewCluster(p node.Profile, link netio.LinkParams, seed uint64) *Cluster {
	engine := sim.NewEngine()
	c := &Cluster{
		Engine:  engine,
		Sim:     node.NewOnEngine(engine, p, seed),
		Staging: node.NewOnEngine(engine, p, seed+1),
	}
	c.Link = netio.Connect(c.Sim, c.Staging, link)
	c.stagingCPU = sim.NewResource(engine,
		func() { c.Staging.SetLoad(p.VizCores, power.IntensityRender, p.VizDRAMGBs) },
		c.Staging.SetIdle)
	c.frameOff = storage.DataStart
	return c
}

// NewClusterFor builds the platform pipeline p runs on: a cluster of
// one fresh node for post-processing and in-situ, or two nodes joined
// by 10 GbE for in-transit and hybrid.
func NewClusterFor(profile node.Profile, p Pipeline, seed uint64) *Cluster {
	if p.Clustered() {
		return NewCluster(profile, netio.TenGigE(), seed)
	}
	n := node.New(profile, seed)
	return &Cluster{Engine: n.Engine, Sim: n}
}

// nodes lists the platform's nodes, the simulation node first.
func (c *Cluster) nodes() []*node.Node {
	if c.Staging == nil {
		return []*node.Node{c.Sim}
	}
	return []*node.Node{c.Sim, c.Staging}
}

// intransitProgram ships every event's data to the staging node,
// which renders asynchronously: the simulation blocks only for the
// network transfer.
func (r *runner) intransitProgram(eng *stagegraph.Engine) {
	c, cfg, cs := r.c, r.cfg, r.cs
	payload := TotalSizeForGrid(cfg)
	for i := 1; i <= cs.Iterations; i++ {
		// Simulate on the sim node (foreground; staging events fire
		// underneath).
		r.simulateIteration(eng)
		if i%cs.IOInterval != 0 {
			continue
		}

		// Render the real frame now (host-side); its virtual cost is
		// charged on the staging node when the data arrives.
		png, stats := renderAnnotatedFrame(cfg.Render, cfg.Render.Lo, cfg.Render.Hi, r.solver.Field(), r.solver.Steps(), r.solver.Time())
		r.countFrame(png)
		r.ship(eng, payload, func() { c.stageRender(stats, units.Bytes(len(png))) })
	}
}

// hybridProgram renders in situ on the simulation node — the full
// in-situ visualization event, unchanged — and offloads each event's
// checkpoint payload over the link to the staging node's disk,
// asynchronously: in-situ monitoring with post-hoc restart data,
// without the local ~188 MiB round trip the post-processing pipeline
// pays.
func (r *runner) hybridProgram(eng *stagegraph.Engine) {
	c, n, cs := r.c, r.n, r.cs
	payload := TotalSizeForGrid(r.cfg)
	for i := 1; i <= cs.Iterations; i++ {
		r.simulateIteration(eng)
		if i%cs.IOInterval != 0 {
			continue
		}
		r.insituVizEvent(eng, i)
		// The staging disk absorbs the write asynchronously.
		r.ship(eng, payload, func() { c.offloadCheckpoint(payload) })
	}
	n.WithIO(func() { n.FS.Sync() })
}

// ship sends one event's payload over the link; the simulation blocks
// only for the serialized transfer, and deliver fires on arrival at
// the staging node.
func (r *runner) ship(eng *stagegraph.Engine, payload units.Bytes, deliver func()) {
	eng.Do(StageNet, func() {
		r.n.WithIO(func() { r.c.Engine.AdvanceTo(r.c.Link.Send(payload, deliver)) })
		r.res.BytesSent += payload
	})
}

// TotalSizeForGrid returns the per-event payload the clustered
// pipelines ship: the checkpoint-equivalent data product.
func TotalSizeForGrid(cfg AppConfig) units.Bytes {
	return units.Bytes(cfg.Heat.NX*cfg.Heat.NY*8) + cfg.CheckpointPayload
}

// stageRender queues one render on the staging node's CPU (FCFS),
// whose hooks bracket its busy period with the render operating point;
// at the render's end, after those hooks, the rendered frame is
// streamed to the staging disk.
func (c *Cluster) stageRender(stats viz.RenderStats, pngBytes units.Bytes) {
	cost := c.Staging.RenderCost(stats.Pixels, stats.ContourCells, pngBytes)
	_, end := c.stagingCPU.Submit(cost, nil)
	c.Engine.At(end, func() {
		// Stream the frame to the staging node's disk (direct I/O).
		off := c.frameOff
		c.frameOff += pngBytes
		c.Staging.Device.Submit(storage.OpWrite, off, pngBytes, nil)
	})
}

// offloadCheckpoint lands one shipped checkpoint payload on the
// staging node's disk (direct I/O), bracketing the write with the
// staging node's I/O operating point. It fires from the link's
// delivery callback, concurrent with the next simulation iterations.
func (c *Cluster) offloadCheckpoint(payload units.Bytes) {
	p := c.Staging.Profile
	c.Staging.SetLoad(p.IOCores, power.IntensityIO, p.IODRAMGBs)
	off := c.frameOff
	c.frameOff += payload
	end := c.Staging.Device.Submit(storage.OpWrite, off, payload, nil)
	c.Engine.At(end, func() {
		if c.Staging.Device.FreeAt() <= end {
			c.Staging.SetIdle()
		}
	})
}

// drain advances until the platform is quiet: the link and the staging
// CPU free, and every node's storage idle. Draining one node's disk can
// deliver work to another's, so it repeats until a pass leaves the
// clock where it was. On a cluster of one it is the node's
// WaitDiskIdle.
func (c *Cluster) drain() {
	for {
		t := c.Engine.Now()
		if c.Link != nil {
			c.Engine.AdvanceTo(max(c.Link.FreeAt(), c.stagingCPU.FreeAt()))
		}
		for _, n := range c.nodes() {
			n.WaitDiskIdle()
		}
		if c.Engine.Now() == t {
			return
		}
	}
}
