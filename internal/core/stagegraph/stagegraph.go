// Package stagegraph is the engine underneath internal/core's
// pipelines. A pipeline is a program: a Go function that runs the
// application and, through Exec.Do, brackets each timed step in a
// Stage named after its trace phase and resource. The engine times
// those steps on the run's virtual clock and emits every cross-cutting
// concern — stage boundaries with their virtual-time and
// metered-energy brackets, and the bounded retry/backoff recovery
// actions — as telemetry events; accountants (the per-stage Ledger in
// this package, trace annotation, progress streams, metrics) subscribe
// to the run's telemetry.Bus instead of being wired into the engine.
package stagegraph

import (
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Stage is one timed step of a pipeline program: the trace phase the
// engine annotates its executions with, and the resource instance it
// runs on ("node" for the simulation node, "link" for the cluster
// interconnect). A Stage carries no behaviour of its own; bodies are
// supplied per execution via Exec.Do.
type Stage struct {
	Phase string
	On    string
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

// Engine executes pipeline programs on one virtual clock and narrates
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

// Run executes program as the run called name, bracketed by RunStart
// and RunEnd events. The program emits stage executions through the
// Exec it receives. A consumer panic (e.g. job cancellation)
// propagates unwrapped to the caller.
func (e *Engine) Run(name string, program func(*Exec)) {
	if e.Bus.Active() {
		now := e.Clock.Now()
		e.Bus.Emit(telemetry.Event{Kind: telemetry.KindRunStart, Run: name, Start: now, End: now})
	}
	program(&Exec{eng: e})
	if e.Bus.Active() {
		now := e.Clock.Now()
		e.Bus.Emit(telemetry.Event{Kind: telemetry.KindRunEnd, Run: name, Start: now, End: now})
	}
}

// Exec is the execution context a program runs under: it emits stage
// executions and reaches the engine's recovery policy.
type Exec struct {
	eng *Engine
}

// Do executes one instance of stage st: body runs on the virtual
// clock, and the engine brackets the interval in a StageStart/StageDone
// event pair carrying the stage's phase and resource, its virtual
// times, and — when the clock meters energy — its energy bracket.
func (x *Exec) Do(st Stage, body func()) {
	e := x.eng
	if !e.Bus.Active() {
		// Nobody listening: the clock reads would be discarded (Now is a
		// pure read on every production clock), so skip them and the
		// event construction entirely. This is the 0 allocs/op
		// no-consumer path.
		body()
		return
	}
	start := e.Clock.Now()
	var startE units.Joules
	if e.meter != nil {
		startE = e.meter.SystemEnergy()
	}
	e.Bus.Emit(telemetry.Event{
		Kind:  telemetry.KindStageStart,
		Stage: st.Phase,
		On:    st.On,
		Start: start,
	})
	body()
	end := e.Clock.Now()
	done := telemetry.Event{
		Kind:  telemetry.KindStageDone,
		Stage: st.Phase,
		On:    st.On,
		Start: start,
		End:   end,
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
// (the recovery stage).
func (x *Exec) Resimulated() {
	x.eng.Bus.Emit(telemetry.Event{Kind: telemetry.KindRetryAttempt, Op: telemetry.RetryResimulate})
}
