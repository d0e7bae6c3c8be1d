package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core/stagegraph"
	"repro/internal/field"
	"repro/internal/units"
	"repro/internal/viz"
)

// programs.go holds the pipeline programs: Go functions over a runner
// that run the application and bracket each timed step under one of the
// StageNames() phases via Engine.Do. The engine owns timing, energy
// brackets and the retry policy; everything else is a plain call.
//
// To define a new pipeline: write its program and add a case to
// program.

// program returns pipeline p's program bound to this runner.
func (r *runner) program(p Pipeline) func(*stagegraph.Engine) {
	switch p {
	case PostProcessing:
		return r.postProgram
	case InSitu:
		return r.insituProgram
	case InTransit:
		return r.intransitProgram
	case Hybrid:
		return r.hybridProgram
	default:
		panic(fmt.Sprintf("core: unknown pipeline %d", p))
	}
}

// ckptRef tracks one checkpoint through the pipeline: its store name,
// the output iteration it captured, and whether the write phase gave
// up on it (so the read phase goes straight to re-simulation).
type ckptRef struct {
	name string
	iter int
	lost bool
}

// postProgram is the traditional pipeline: phase one simulates and
// writes checkpoints (fsync each for durability); a sync + drop_caches
// barrier separates the phases (§IV-C); phase two reads every
// checkpoint back cold and visualizes it.
//
// Storage errors are recoverable, never fatal: writes and reads retry
// under the engine's retry policy, and a checkpoint storage cannot
// produce intact is re-simulated from the initial conditions — the
// solver is deterministic, so the recomputed field (and thus the
// rendered frame) is identical to the lost one. Every recovery path is
// charged to the virtual time and energy ledgers.
func (r *runner) postProgram(eng *stagegraph.Engine) {
	n, cfg, cs := r.n, r.cfg, r.cs
	store := cfg.Store
	if store == nil {
		store = localStore{n: n, async: cfg.AsyncCheckpoint, enc: &checkpoint.Encoder{}}
	}
	var ckpts []ckptRef
	for i := 1; i <= cs.Iterations; i++ {
		r.simulateIteration(eng)
		if i%cs.IOInterval != 0 {
			continue
		}
		c := ckptRef{name: fmt.Sprintf("ckpt-%04d", i), iter: i}
		eng.Do(StageWrite, func() {
			c.lost = !eng.WriteRetry(func() error {
				return store.WriteCheckpoint(c.name, r.solver.Field(), r.solver.Steps(), r.solver.Time(), cfg.CheckpointPayload)
			})
		})
		ckpts = append(ckpts, c)
	}

	// Phase barrier: sync and drop caches so reads hit the media.
	store.Barrier()

	for _, c := range ckpts {
		var g *field.Grid
		var step uint64
		var simTime float64
		ok := false
		if !c.lost {
			eng.Do(StageRead, func() {
				ok = eng.ReadRetry(func() error {
					var err error
					g, step, simTime, err = store.ReadCheckpoint(c.name)
					return err
				})
			})
		}
		if !ok {
			// The checkpoint is gone (write gave up) or unreadable after
			// the retry budget: recompute its field from the initial
			// conditions.
			eng.Do(StageRecovery, func() {
				g, step, simTime = r.resimulate(c.iter)
				eng.Resimulated()
			})
		}
		eng.Do(StageViz, func() {
			png := r.renderFrame(g, step, simTime)
			n.WithIO(func() { r.writeFrameFile(eng, png) })
		})
	}
	n.WithIO(func() { n.FS.Sync() })
}

// insituProgram is the coupled pipeline: each I/O event renders
// directly from the live field and synchronously flushes the frame plus
// a reduced data product so the scientist can monitor the run.
func (r *runner) insituProgram(eng *stagegraph.Engine) {
	n, cs := r.n, r.cs
	for i := 1; i <= cs.Iterations; i++ {
		r.simulateIteration(eng)
		if i%cs.IOInterval != 0 {
			continue
		}
		r.insituVizEvent(eng, i)
	}
	n.WithIO(func() { n.FS.Sync() })
}

// insituVizEvent is one in-situ visualization event: render from the
// live field, optional cinema variants and compression, then
// synchronously flush the frame plus the reduced data product. The
// in-situ and hybrid pipelines share it verbatim.
func (r *runner) insituVizEvent(eng *stagegraph.Engine, i int) {
	n, cfg := r.n, r.cfg
	eng.Do(StageViz, func() {
		png := r.renderFrame(r.solver.Field(), r.solver.Steps(), r.solver.Time())
		r.renderCinemaVariants(eng, i)
		payload := cfg.InsituPayload
		if cfg.CompressInsitu {
			// Measure the real compression ratio on this event's
			// field and charge the compression pass.
			ratio, err := viz.CompressionRatio(r.solver.Field())
			if err != nil {
				panic(fmt.Sprintf("core: compression failed: %v", err))
			}
			if ratio > 1 {
				payload = units.Bytes(float64(payload) / ratio)
			}
			n.Compress(cfg.InsituPayload)
			r.res.CompressionRatio = ratio
		}
		n.WithIO(func() {
			f := r.writeFrameFile(eng, png)
			reduced := n.FS.Create(fmt.Sprintf("reduced-%04d", i))
			eng.WriteRetry(func() error { return reduced.AppendSparse(payload) })
			if !cfg.InsituNoSync {
				f.Fsync()
				reduced.Fsync()
			}
		})
	})
}
