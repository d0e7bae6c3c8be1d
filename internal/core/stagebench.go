package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/node"
	"repro/internal/trace"
	"repro/internal/units"
)

// StageCharacterization is the isolated nnread/nnwrite study behind
// Fig. 6 and Table II: each stage is run alone for a window while the
// meters record, and its average total and dynamic (above idle) power
// are extracted.
type StageCharacterization struct {
	// Profile holds the "nnwrite"/"nnread" phases and the instrument
	// series for Fig. 6.
	Profile *trace.Profile

	IdlePower units.Watts

	WriteAvgTotal   units.Watts
	WriteAvgDynamic units.Watts
	ReadAvgTotal    units.Watts
	ReadAvgDynamic  units.Watts

	// AvgIODynamic averages the two stages' dynamic power — the input
	// to the paper's savings-breakdown method.
	AvgIODynamic units.Watts
}

// CharacterizeStages measures the I/O stages on a fresh node. events
// controls how many checkpoint write/read events each stage performs
// (the paper profiled ~50 s windows; 12 events ≈ 24 s each).
func CharacterizeStages(n *node.Node, cfg AppConfig, events int) StageCharacterization {
	if events <= 0 {
		panic("core: CharacterizeStages needs at least one event")
	}
	solver := newWarmSolver(cfg)
	inst := n.NewInstruments("stage-characterization", nil)
	out := StageCharacterization{Profile: inst.Profile}

	// Idle baseline first: a quiet window with only the instruments on.
	inst.Start()
	idleStart := n.Now()
	n.Idle(10)
	inst.Profile.MarkPhase("idle", idleStart, n.Now())

	// nnwrite: repeatedly write + fsync checkpoints through the
	// pipelines' own local store, one encoder (and so one encode
	// buffer) for the whole stage.
	store := localStore{n: n, enc: &checkpoint.Encoder{}}
	writeStart := n.Now()
	names := make([]string, events)
	for i := range names {
		names[i] = fmt.Sprintf("stage-ckpt-%04d", i)
		// The characterization node carries no fault injector, so the
		// write cannot fail transiently.
		if err := store.WriteCheckpoint(names[i], solver.Field(), solver.Steps(), solver.Time(), cfg.CheckpointPayload); err != nil {
			panic(fmt.Sprintf("core: stage checkpoint write failed: %v", err))
		}
	}
	n.WaitDiskIdle()
	inst.Profile.MarkPhase(StageWrite, writeStart, n.Now())

	// Barrier, then nnread: cold reads of the same checkpoints.
	store.Barrier()
	readStart := n.Now()
	for _, name := range names {
		if _, _, _, err := store.ReadCheckpoint(name); err != nil {
			panic(fmt.Sprintf("core: stage checkpoint corrupt: %v", err))
		}
	}
	n.WaitDiskIdle()
	inst.Profile.MarkPhase(StageRead, readStart, n.Now())
	inst.Stop()

	out.IdlePower = units.Watts(inst.Profile.PhaseMean("system", "idle"))
	out.WriteAvgTotal = units.Watts(inst.Profile.PhaseMean("system", StageWrite))
	out.ReadAvgTotal = units.Watts(inst.Profile.PhaseMean("system", StageRead))
	out.WriteAvgDynamic = out.WriteAvgTotal - out.IdlePower
	out.ReadAvgDynamic = out.ReadAvgTotal - out.IdlePower
	out.AvgIODynamic = (out.WriteAvgDynamic + out.ReadAvgDynamic) / 2
	return out
}

// newWarmSolver builds the configured application and advances it a
// little so the checkpoints carry a non-trivial field.
func newWarmSolver(cfg AppConfig) Simulator {
	s := newSimulator(cfg)
	s.Step(cfg.RealSubsteps)
	return s
}
