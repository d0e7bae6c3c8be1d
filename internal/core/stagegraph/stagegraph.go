// Package stagegraph is the composable pipeline engine underneath
// internal/core. A visualization pipeline is not a monolithic
// function here but a declarative Spec: an ordered graph of
// first-class Stage values — Simulate, Encode, WriteCheckpoint,
// Barrier, ReadCheckpoint, Render, FrameFlush, NetTransfer, Recover —
// each declaring the values it consumes and produces and the resource
// (node, disk, link) it occupies. One Engine executes every spec and
// emits every cross-cutting concern — stage boundaries with their
// virtual-time and metered-energy brackets, and the bounded
// retry/backoff recovery actions — as telemetry events; accountants
// (the per-stage Ledger in this package, trace annotation, progress
// streams, metrics) subscribe to the run's telemetry.Bus instead of
// being wired into the engine.
//
// The design follows the task-graph workflow modeling of faithful
// in-situ simulation frameworks (SIM-SITU, arXiv:2112.15067) and
// exists so hybrid shapes — in-situ rendering with in-transit data
// offload, à la Catalyst-ADIOS2 (arXiv:2406.18112) — compose from the
// same stage vocabulary as the paper's two pipelines instead of
// requiring a third monolith.
package stagegraph

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// Kind identifies a canonical stage in the pipeline vocabulary.
type Kind string

// The stage vocabulary every pipeline composes from.
const (
	Simulate        Kind = "Simulate"
	Encode          Kind = "Encode"
	WriteCheckpoint Kind = "WriteCheckpoint"
	Barrier         Kind = "Barrier"
	ReadCheckpoint  Kind = "ReadCheckpoint"
	Render          Kind = "Render"
	FrameFlush      Kind = "FrameFlush"
	NetTransfer     Kind = "NetTransfer"
	Recover         Kind = "Recover"
)

// ResourceKind classifies what a stage occupies while it runs.
type ResourceKind int

// The resource classes a Binding can name.
const (
	ResNode ResourceKind = iota // a node's CPU/DRAM operating point
	ResDisk                     // a node's storage stack
	ResLink                     // the cluster interconnect
)

func (k ResourceKind) String() string {
	switch k {
	case ResDisk:
		return "disk"
	case ResLink:
		return "link"
	default:
		return "node"
	}
}

// Binding names the resource a stage runs against: the kind of
// resource and the logical instance ("node" for the simulation node,
// "staging" for a cluster's staging node, "link" for the
// interconnect).
type Binding struct {
	Kind ResourceKind
	On   string
}

func (b Binding) String() string { return fmt.Sprintf("%s:%s", b.Kind, b.On) }

// Stage is a first-class pipeline building block: its kind, the trace
// phase the engine annotates its executions with ("" leaves the
// execution untimed glue), the value names it consumes and produces
// (checked by Spec.Validate), and the resource it occupies.
//
// A Stage carries no behaviour of its own — bodies are supplied per
// execution via Exec.Do — so the same value can appear in every spec
// that uses the stage, and a spec is data, inspectable before it runs.
type Stage struct {
	Kind    Kind
	Phase   string
	Uses    []string
	Yields  []string
	Binding Binding
}

// Spec is a declarative pipeline: a name, the external values the
// caller provides (solver state, configuration), the dataflow-ordered
// stage graph, and the program that emits stage executions to the
// engine. Stages lists each distinct stage once, in an order
// consistent with its dataflow; Program may execute them any number
// of times (iterations, conditional recovery) but only stages listed
// in Stages.
type Spec struct {
	Name    string
	Inputs  []string
	Stages  []Stage
	Program func(*Exec)
}

// Validate checks the declared dataflow: every value a stage Uses
// must be a spec Input or Yielded by an earlier stage in Stages. This
// is the graph well-formedness check — it catches specs wired to
// consume values nothing produces before anything executes.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("stagegraph: spec needs a name")
	}
	if len(s.Stages) == 0 {
		return fmt.Errorf("stagegraph: spec %q has no stages", s.Name)
	}
	if s.Program == nil {
		return fmt.Errorf("stagegraph: spec %q has no program", s.Name)
	}
	avail := map[string]bool{}
	for _, in := range s.Inputs {
		avail[in] = true
	}
	for i, st := range s.Stages {
		for _, u := range st.Uses {
			if !avail[u] {
				return fmt.Errorf("stagegraph: spec %q stage %d (%s) uses %q, which no earlier stage yields and no input provides",
					s.Name, i, st.Kind, u)
			}
		}
		for _, y := range st.Yields {
			avail[y] = true
		}
	}
	return nil
}

// stageByKindPhase reports whether the spec declares st (same kind and
// phase), so Exec.Do can reject executions of undeclared stages.
func (s Spec) declares(st Stage) bool {
	for _, d := range s.Stages {
		if d.Kind == st.Kind && d.Phase == st.Phase && d.Binding == st.Binding {
			return true
		}
	}
	return false
}

// RetryPolicy bounds how a run responds to recoverable storage errors:
// up to MaxAttempts tries per operation, with an exponential
// simulated-time backoff starting at Backoff between attempts, all
// charged to the run's time and energy ledgers. The zero value means
// 3 attempts with a 0.5 s initial backoff.
type RetryPolicy struct {
	MaxAttempts int
	Backoff     units.Seconds
}

// WithDefaults fills the zero value's defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 0.5
	}
	return p
}

// RecoveryStats accounts the fault handling one run performed.
type RecoveryStats struct {
	// WriteRetries / ReadRetries count repeated attempts after a
	// transient failure (the initial attempt is not counted).
	WriteRetries uint64 `json:"write_retries"`
	ReadRetries  uint64 `json:"read_retries"`
	// LostWrites counts writes abandoned after the retry budget: a lost
	// checkpoint is recovered later by re-simulation; a lost frame or
	// reduced data product is simply absent from disk.
	LostWrites uint64 `json:"lost_writes"`
	// Resimulations counts checkpoints recomputed from initial
	// conditions because storage could not produce an intact copy.
	Resimulations uint64 `json:"resimulations"`
	// BackoffTime is the simulated time spent waiting between retries.
	BackoffTime units.Seconds `json:"backoff_seconds"`
}

// Total returns the number of recovery actions taken.
func (s RecoveryStats) Total() uint64 {
	return s.WriteRetries + s.ReadRetries + s.LostWrites + s.Resimulations
}

// Clock is the virtual clock the engine times stages against, plus
// the idle primitive backoff charges its waits to.
type Clock interface {
	Now() units.Seconds
	Idle(units.Seconds)
}

// EnergyReader is the optional meter a clock can expose. When the
// engine's clock also reads cumulative system energy (node.Node does),
// every StageDone event carries the stage's energy bracket, giving
// consumers per-stage energy attribution for free.
type EnergyReader interface {
	SystemEnergy() units.Joules
}

// Ledger is the engine's stock accountant: a telemetry consumer that
// folds StageDone events into per-stage time and energy totals and
// RetryAttempt events into recovery counters. It holds no reference to
// the engine — attach it to the run's bus like any other consumer.
type Ledger struct {
	// StageTime accumulates execution time per phase name.
	StageTime map[string]units.Seconds
	// StageEnergy accumulates metered energy per phase name; it stays
	// empty when the run's clock exposes no meter.
	StageEnergy map[string]units.Joules
	// Recovery accounts the retries, losses, and backoff the engine's
	// recovery policy performed.
	Recovery RecoveryStats
}

// NewLedger returns an empty ledger ready to attach to a bus.
func NewLedger() *Ledger {
	return &Ledger{
		StageTime:   map[string]units.Seconds{},
		StageEnergy: map[string]units.Joules{},
	}
}

// Consume implements telemetry.Consumer.
func (l *Ledger) Consume(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindStageDone:
		l.StageTime[ev.Stage] += ev.End - ev.Start
		if ev.HasEnergy {
			l.StageEnergy[ev.Stage] += ev.EndEnergy - ev.StartEnergy
		}
	case telemetry.KindRetryAttempt:
		switch ev.Op {
		case telemetry.RetryWrite:
			l.Recovery.WriteRetries++
		case telemetry.RetryRead:
			l.Recovery.ReadRetries++
		case telemetry.RetryLostWrite:
			l.Recovery.LostWrites++
		case telemetry.RetryResimulate:
			l.Recovery.Resimulations++
		}
		l.Recovery.BackoffTime += ev.Backoff
	}
}

// Engine executes pipeline specs on one virtual clock and narrates
// them onto one telemetry bus: run boundaries, timed stage executions
// (with energy brackets when the clock meters energy), and every
// recovery action under the bounded retry/backoff policy.
type Engine struct {
	Clock Clock
	// Bus receives the engine's events. With no consumers attached the
	// hot path pays one branch and nothing else (guarded by a
	// 0 allocs/op regression test).
	Bus   *telemetry.Bus
	Retry RetryPolicy

	meter EnergyReader // Clock's meter view, nil if it has none
	spec  *Spec
}

// New builds an engine emitting into bus (nil means an inert private
// bus). The retry policy is defaulted. If clock also implements
// EnergyReader, stage events carry energy brackets.
func New(clock Clock, bus *telemetry.Bus, retry RetryPolicy) *Engine {
	if clock == nil {
		panic("stagegraph: engine needs a clock")
	}
	if bus == nil {
		bus = telemetry.NewBus()
	}
	meter, _ := clock.(EnergyReader)
	return &Engine{Clock: clock, Bus: bus, Retry: retry.WithDefaults(), meter: meter}
}

// Run validates the spec and executes its program. The program emits
// stage executions through the Exec it receives. A consumer panic
// (e.g. job cancellation) propagates unwrapped to the caller.
func (e *Engine) Run(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	e.spec = &s
	defer func() { e.spec = nil }()
	if e.Bus.Active() {
		now := e.Clock.Now()
		e.Bus.Emit(telemetry.Event{Kind: telemetry.KindRunStart, Run: s.Name, Start: now, End: now})
	}
	s.Program(&Exec{eng: e})
	if e.Bus.Active() {
		now := e.Clock.Now()
		e.Bus.Emit(telemetry.Event{Kind: telemetry.KindRunEnd, Run: s.Name, Start: now, End: now})
	}
	return nil
}

// Exec is the execution context a spec's program runs under: it emits
// stage executions and reaches the engine's recovery policy.
type Exec struct {
	eng *Engine
}

// Do executes one instance of stage st: body runs on the virtual
// clock, and the engine brackets the interval in a StageStart/StageDone
// event pair carrying the stage's phase, kind, binding, virtual times,
// and — when the clock meters energy — its energy bracket. Executing a
// stage the current spec does not declare panics — the declared graph
// is the contract.
func (x *Exec) Do(st Stage, body func()) {
	e := x.eng
	if e.spec != nil && !e.spec.declares(st) {
		// The branch-local copy keeps st itself from escaping: handing st
		// straight to fmt makes every Do call heap-copy the Stage even
		// when the cold branch never runs.
		bad := st
		panic(fmt.Sprintf("stagegraph: spec %q executed undeclared stage %s/%s (%s)",
			e.spec.Name, bad.Kind, bad.Phase, bad.Binding))
	}
	if st.Phase == "" || !e.Bus.Active() {
		// Untimed glue, or nobody listening: the clock reads would be
		// discarded (Now is a pure read on every production clock), so
		// skip them and the event construction entirely. This is the
		// 0 allocs/op no-consumer path.
		body()
		return
	}
	start := e.Clock.Now()
	var startE units.Joules
	if e.meter != nil {
		startE = e.meter.SystemEnergy()
	}
	e.Bus.Emit(telemetry.Event{
		Kind:      telemetry.KindStageStart,
		Stage:     st.Phase,
		StageKind: string(st.Kind),
		On:        st.Binding.On,
		Start:     start,
	})
	body()
	end := e.Clock.Now()
	done := telemetry.Event{
		Kind:      telemetry.KindStageDone,
		Stage:     st.Phase,
		StageKind: string(st.Kind),
		On:        st.Binding.On,
		Start:     start,
		End:       end,
	}
	if e.meter != nil {
		done.StartEnergy = startE
		done.EndEnergy = e.meter.SystemEnergy()
		done.HasEnergy = true
	}
	e.Bus.Emit(done)
}

// backoff charges the exponential simulated-time wait before retry
// attempt number attempt (1-based): Backoff, 2*Backoff, 4*Backoff...
// The clock sits idle — the time and its static energy land on the
// run's ledgers like any other stall. Returns the charged wait so the
// retry event can carry it.
func (x *Exec) backoff(attempt int) units.Seconds {
	e := x.eng
	d := e.Retry.Backoff * units.Seconds(int64(1)<<uint(attempt-1))
	e.Clock.Idle(d)
	return d
}

// WriteRetry runs write under the retry budget and reports whether it
// ever succeeded; a final failure counts as a lost write.
func (x *Exec) WriteRetry(write func() error) bool {
	e := x.eng
	err := write()
	for attempt := 1; err != nil && attempt < e.Retry.MaxAttempts; attempt++ {
		d := x.backoff(attempt)
		e.Bus.Emit(telemetry.Event{
			Kind:    telemetry.KindRetryAttempt,
			Op:      telemetry.RetryWrite,
			Attempt: attempt,
			Backoff: d,
		})
		err = write()
	}
	if err != nil {
		e.Bus.Emit(telemetry.Event{Kind: telemetry.KindRetryAttempt, Op: telemetry.RetryLostWrite})
		return false
	}
	return true
}

// ReadRetry runs read under the retry budget and reports whether it
// ever succeeded. Both transient errors and corruption (a tripped CRC)
// are retried: bit-rot hits the delivered copy, not the media, so a
// re-read can come back intact.
func (x *Exec) ReadRetry(read func() error) bool {
	e := x.eng
	err := read()
	for attempt := 1; err != nil && attempt < e.Retry.MaxAttempts; attempt++ {
		d := x.backoff(attempt)
		e.Bus.Emit(telemetry.Event{
			Kind:    telemetry.KindRetryAttempt,
			Op:      telemetry.RetryRead,
			Attempt: attempt,
			Backoff: d,
		})
		err = read()
	}
	return err == nil
}

// Resimulated records one checkpoint recomputed from initial
// conditions, for stage bodies that perform the recovery themselves
// (the Recover stage).
func (x *Exec) Resimulated() {
	x.eng.Bus.Emit(telemetry.Event{Kind: telemetry.KindRetryAttempt, Op: telemetry.RetryResimulate})
}
