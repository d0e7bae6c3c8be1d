package service

import (
	"context"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// events.go is the live progress side of the service: every execution
// owns an append-only event log that SSE subscribers replay and then
// follow. Events come from two sources — the manager's lifecycle
// transitions (queued, running, done/failed/canceled) and the run's
// telemetry stream, which the execution's consumer coalesces to one
// "stage" event per distinct engine stage, in first execution order.
// Because runs are deterministic, so is the event sequence a job
// emits.

// Event is one SSE payload.
type Event struct {
	// Seq numbers events from 1 within one execution.
	Seq int `json:"seq"`
	// Type is "queued", "running", "run", "stage", "done", "failed",
	// or "canceled".
	Type string `json:"type"`
	// Run is the pipeline spec name ("post-processing", "in-situ", ...)
	// on "run" events: one per underlying engine run, so experiment
	// jobs show each shared run they trigger.
	Run string `json:"run,omitempty"`
	// Stage is the engine stage's phase name on "stage" events
	// ("simulation", "nnwrite", ...), emitted once per distinct stage.
	Stage string `json:"stage,omitempty"`
	// At is the virtual time of the stage's first completion.
	At units.Seconds `json:"at,omitempty"`
	// Error carries the failure reason on "failed" events.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether this event closes the stream.
func (e Event) Terminal() bool {
	switch e.Type {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// WithSeq returns the event numbered seq.
func (e Event) WithSeq(seq int) Event { e.Seq = seq; return e }

// SSEName is the event's SSE "event:" name.
func (e Event) SSEName() string { return e.Type }

// LogEvent is what an EventLog holds: an SSE payload that takes the
// sequence number the log assigns, names its SSE event, and says
// whether it closes the stream.
type LogEvent[E any] interface {
	WithSeq(seq int) E
	SSEName() string
	Terminal() bool
}

// EventLog is an append-only, closable event sequence supporting
// replay-then-follow subscribers: every job execution and every
// campaign owns one. The zero value is not usable; use NewEventLog.
type EventLog[E LogEvent[E]] struct {
	mu     sync.Mutex
	events []E
	closed bool
	wake   chan struct{} // closed and replaced on every append
}

// NewEventLog returns an empty, open log.
func NewEventLog[E LogEvent[E]]() *EventLog[E] {
	return &EventLog[E]{wake: make(chan struct{})}
}

// Emit appends one event, assigning its sequence number. Terminal
// events close the log; emits after close are dropped (a canceled
// execution may race its own completion).
func (l *EventLog[E]) Emit(ev E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev = ev.WithSeq(len(l.events) + 1)
	l.events = append(l.events, ev)
	if ev.Terminal() {
		l.closed = true
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// After returns the events past idx, whether the log is closed, and a
// channel that is closed on the next append — the subscriber's wait
// primitive.
func (l *EventLog[E]) After(idx int) ([]E, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if idx > len(l.events) {
		idx = len(l.events)
	}
	return l.events[idx:], l.closed, l.wake
}

// Wait blocks until done reports true, the log closes, or ctx expires.
// It rides the wake channel, so waiting costs no polling.
func (l *EventLog[E]) Wait(ctx context.Context, done func() bool) {
	for idx := 0; !done(); {
		events, closed, wake := l.After(idx)
		idx += len(events)
		if closed {
			return
		}
		if len(events) == 0 {
			select {
			case <-wake:
			case <-ctx.Done():
				return
			}
		}
	}
}

// jobCanceled is the sentinel the execution's telemetry consumer
// panics with to abort a run mid-flight; the manager's worker recovers
// it and finalizes the job as canceled. It deliberately never escapes
// the package: safeRun translates it to context.Canceled.
type jobCanceled struct{}

// jobTelemetry is the execution's telemetry consumer: it streams
// coalesced progress into the event log, accumulates per-stage virtual
// seconds and metered joules (and fault-injection counts) into the
// service metrics, and aborts the run (by panicking with jobCanceled)
// once the execution's context is canceled — every telemetry event is
// a cancellation point, the only way to stop a pipeline mid-run
// without threading a context through the deterministic core.
type jobTelemetry struct {
	ctx context.Context
	log *EventLog[Event]
	met *Metrics

	mu   sync.Mutex
	seen map[string]bool
}

func newJobTelemetry(ctx context.Context, log *EventLog[Event], met *Metrics) *jobTelemetry {
	return &jobTelemetry{ctx: ctx, log: log, met: met, seen: map[string]bool{}}
}

// Consume implements telemetry.Consumer.
func (o *jobTelemetry) Consume(ev telemetry.Event) {
	if o.ctx.Err() != nil {
		panic(jobCanceled{})
	}
	switch ev.Kind {
	case telemetry.KindRunStart:
		o.log.Emit(Event{Type: "run", Run: ev.Run})
	case telemetry.KindStageDone:
		o.met.addStageTime(ev.Stage, ev.Duration())
		o.met.addStageEnergy(ev.Stage, ev.Energy())
		o.mu.Lock()
		first := !o.seen[ev.Stage]
		o.seen[ev.Stage] = true
		o.mu.Unlock()
		if first {
			o.log.Emit(Event{Type: "stage", Stage: ev.Stage, At: ev.End})
		}
	case telemetry.KindFaultInjected:
		o.met.FaultsInjected.Add(1)
	}
}
