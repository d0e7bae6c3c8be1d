// Package stagegraph is the engine underneath internal/core's
// pipelines. A pipeline is a program: a Go function that runs the
// application and, through Engine.Do, brackets each timed step under
// its phase name. The engine times those steps on the run's metered
// virtual clock and emits every cross-cutting concern — stage
// boundaries with their virtual-time and energy brackets, and the
// bounded retry/backoff recovery actions — as telemetry events;
// accountants (the per-stage Ledger in this package, progress streams,
// metrics) subscribe to the run's telemetry.Bus instead of being wired
// into the engine.
package stagegraph

import (
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The retry policy every run recovers from storage errors under: up to
// maxAttempts tries per operation, with an exponential simulated-time
// backoff between attempts starting at firstBackoff (0.5 s, then 1 s),
// all charged to the run's time and energy ledgers.
const (
	maxAttempts                = 3
	firstBackoff units.Seconds = 0.5
)

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

// Clock is the metered virtual clock the engine times stages against:
// the current time, the cumulative system energy that brackets every
// stage, and the idle primitive backoff charges its waits to.
// node.Node is one.
type Clock interface {
	Now() units.Seconds
	SystemEnergy() units.Joules
	Idle(units.Seconds)
}

// Ledger is the engine's stock accountant: a telemetry consumer that
// folds StageDone events into per-stage time and energy totals and
// RetryAttempt events into recovery counters. It holds no reference to
// the engine — attach it to the run's bus like any other consumer.
type Ledger struct {
	// StageTime accumulates execution time per phase name.
	StageTime map[string]units.Seconds
	// StageEnergy accumulates metered energy per phase name.
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
		l.StageTime[ev.Stage] += ev.Duration()
		l.StageEnergy[ev.Stage] += ev.Energy()
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

// Engine executes pipeline programs on one metered virtual clock and
// narrates them onto one telemetry bus: run boundaries, timed stage
// executions with their energy brackets, and every recovery action
// under the bounded retry/backoff policy. A program receives the
// engine itself as its handle.
type Engine struct {
	clock Clock
	// bus receives the engine's events. With no consumers attached the
	// hot path pays one branch and nothing else (guarded by a
	// 0 allocs/op regression test).
	bus *telemetry.Bus
}

// New builds an engine timing stages on clock and emitting into bus
// (nil means an inert private bus).
func New(clock Clock, bus *telemetry.Bus) *Engine {
	if clock == nil {
		panic("stagegraph: engine needs a clock")
	}
	if bus == nil {
		bus = telemetry.NewBus()
	}
	return &Engine{clock: clock, bus: bus}
}

// Run executes program as the run called name, bracketed by RunStart
// and RunEnd events. The program emits stage executions through the
// engine it receives. A consumer panic (e.g. job cancellation)
// propagates unwrapped to the caller.
func (e *Engine) Run(name string, program func(*Engine)) {
	if e.bus.Active() {
		now := e.clock.Now()
		e.bus.Emit(telemetry.Event{Kind: telemetry.KindRunStart, Run: name, Start: now, End: now})
	}
	program(e)
	if e.bus.Active() {
		now := e.clock.Now()
		e.bus.Emit(telemetry.Event{Kind: telemetry.KindRunEnd, Run: name, Start: now, End: now})
	}
}

// Do executes one timed step of the named phase: body runs on the
// virtual clock, and the engine brackets the interval in a
// StageStart/StageDone event pair carrying the phase, its virtual times
// and its energy bracket.
func (e *Engine) Do(phase string, body func()) {
	if !e.bus.Active() {
		// Nobody listening: the clock and meter reads would be discarded
		// (both are pure reads on every production clock), so skip them
		// and the event construction entirely. This is the 0 allocs/op
		// no-consumer path.
		body()
		return
	}
	start, startE := e.clock.Now(), e.clock.SystemEnergy()
	e.bus.Emit(telemetry.Event{Kind: telemetry.KindStageStart, Stage: phase, Start: start})
	body()
	end, endE := e.clock.Now(), e.clock.SystemEnergy()
	e.bus.Emit(telemetry.Event{
		Kind:        telemetry.KindStageDone,
		Stage:       phase,
		Start:       start,
		End:         end,
		StartEnergy: startE,
		EndEnergy:   endE,
	})
}

// retry runs f until it succeeds, at most maxAttempts times, and
// reports whether it ever did. Before each repeat it charges the
// exponential simulated-time backoff (firstBackoff, twice that, ...)
// as idle time, so the time and its static energy land on the run's
// ledgers like any other stall, and emits the attempt as an op event.
func (e *Engine) retry(op telemetry.RetryOp, f func() error) bool {
	err := f()
	for attempt := 1; err != nil && attempt < maxAttempts; attempt++ {
		d := firstBackoff * units.Seconds(int64(1)<<uint(attempt-1))
		e.clock.Idle(d)
		e.bus.Emit(telemetry.Event{Kind: telemetry.KindRetryAttempt, Op: op, Attempt: attempt, Backoff: d})
		err = f()
	}
	return err == nil
}

// WriteRetry runs write under the retry budget and reports whether it
// ever succeeded; a final failure counts as a lost write.
func (e *Engine) WriteRetry(write func() error) bool {
	if e.retry(telemetry.RetryWrite, write) {
		return true
	}
	e.bus.Emit(telemetry.Event{Kind: telemetry.KindRetryAttempt, Op: telemetry.RetryLostWrite})
	return false
}

// ReadRetry runs read under the retry budget and reports whether it
// ever succeeded. Both transient errors and corruption (a tripped CRC)
// are retried: bit-rot hits the delivered copy, not the media, so a
// re-read can come back intact.
func (e *Engine) ReadRetry(read func() error) bool {
	return e.retry(telemetry.RetryRead, read)
}

// Resimulated records one checkpoint recomputed from initial
// conditions, for stage bodies that perform the recovery themselves
// (the recovery stage).
func (e *Engine) Resimulated() {
	e.bus.Emit(telemetry.Event{Kind: telemetry.KindRetryAttempt, Op: telemetry.RetryResimulate})
}
