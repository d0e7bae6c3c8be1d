// Package telemetry is the single event stream every instrumented
// subsystem speaks. Producers — the stagegraph engine, the retry and
// recovery machinery, the fault injector, the RAPL and Wattsup
// samplers — emit typed Events into one Bus per run; accountants — the
// per-stage time and energy ledger, the trace recorder of instrument
// series, the service daemon's SSE progress log and Prometheus
// counters — subscribe as Consumers and derive their view from the
// same stream. Faithful in-situ simulation frameworks converge on
// exactly this shape (SIM-SITU, arXiv:2112.15067; the in-situ survey
// arXiv:2212.14817): one instrumented event stream all analyses
// consume, instead of one bespoke hook per analysis.
//
// The hot-path contract mirrors the nil-observer discipline this
// stream replaces: with no consumers attached, emitting costs a nil
// check and a length test — zero allocations, zero side effects — so
// uninstrumented runs (and the golden-digest harness that pins their
// bytes) pay nothing. Events are flat value structs; fan-out passes
// them by value, so a consumer can never mutate another's view.
//
// Delivery is synchronous and in attachment order, on the emitting
// goroutine. Determinism follows: a deterministic run produces a
// deterministic event sequence, which is what lets the service daemon
// replay progress streams and content-address reports.
package telemetry

import "repro/internal/units"

// Kind discriminates the event vocabulary.
type Kind uint8

// The event vocabulary. Every instrumented moment of a run is one of
// these; consumers switch on Kind and ignore what they don't account.
const (
	// KindRunStart opens one pipeline run (Run is set).
	KindRunStart Kind = iota
	// KindStageStart opens one timed stage execution (Stage, Start).
	KindStageStart
	// KindStageDone closes one timed stage execution (Stage, Start,
	// End, StartEnergy, EndEnergy).
	KindStageDone
	// KindEnergySample is one instrument reading: Source names the
	// series ("system", "rapl.PKG", ...), At is the reading time, Value
	// the reading (watts for the power instruments).
	KindEnergySample
	// KindFaultInjected fires once per injected storage fault; Source
	// carries the fault class ("bitrot", "readerr", "writeerr",
	// "latency", "drop") and Value the charged stall in seconds for the
	// classes that stall (latency spikes).
	KindFaultInjected
	// KindRetryAttempt is one recovery action under the engine's retry
	// policy: Op says which (write/read retry, an abandoned write, a
	// re-simulation), Attempt numbers retries from 1, Backoff is the
	// simulated wait charged before the retry.
	KindRetryAttempt
	// KindRunEnd closes one pipeline run (Run is set).
	KindRunEnd
	// KindSeriesDefine declares an instrument series (Source, Unit)
	// before its first sample, so recording consumers can materialize
	// series — in definition order — even for instruments that end up
	// producing no samples.
	KindSeriesDefine
)

func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run-start"
	case KindStageStart:
		return "stage-start"
	case KindStageDone:
		return "stage-done"
	case KindEnergySample:
		return "energy-sample"
	case KindFaultInjected:
		return "fault-injected"
	case KindRetryAttempt:
		return "retry-attempt"
	case KindRunEnd:
		return "run-end"
	case KindSeriesDefine:
		return "series-define"
	default:
		return "unknown"
	}
}

// RetryOp classifies a KindRetryAttempt event.
type RetryOp uint8

// The recovery actions the retry policy performs.
const (
	// RetryWrite is a repeated write attempt after a transient failure.
	RetryWrite RetryOp = iota
	// RetryRead is a repeated read attempt after a transient failure or
	// a tripped CRC.
	RetryRead
	// RetryLostWrite marks a write abandoned after the retry budget.
	RetryLostWrite
	// RetryResimulate marks a checkpoint recomputed from initial
	// conditions because storage could not produce an intact copy.
	RetryResimulate
)

func (o RetryOp) String() string {
	switch o {
	case RetryRead:
		return "read-retry"
	case RetryLostWrite:
		return "lost-write"
	case RetryResimulate:
		return "resimulate"
	default:
		return "write-retry"
	}
}

// Event is one telemetry record: a flat value struct whose populated
// fields depend on Kind (see the Kind constants). Flat-by-value is
// deliberate — emitting one allocates nothing, and each consumer gets
// its own copy.
type Event struct {
	Kind Kind

	// Run is the pipeline name (KindRunStart / KindRunEnd).
	Run string
	// Stage is the stage's phase name.
	Stage string
	// Start and End bracket a stage execution in virtual time.
	Start, End units.Seconds
	// At timestamps point events (energy samples).
	At units.Seconds
	// Source names an instrument series (samples, definitions) or a
	// fault class; Unit is the series unit on KindSeriesDefine.
	Source string
	Unit   string
	// Value is the sample reading, or a fault's charged stall.
	Value float64
	// StartEnergy and EndEnergy bracket a stage execution in cumulative
	// system energy — the per-stage energy attribution the paper's
	// greenness argument rests on.
	StartEnergy, EndEnergy units.Joules
	// Op, Attempt, and Backoff describe one KindRetryAttempt.
	Op      RetryOp
	Attempt int
	Backoff units.Seconds
}

// Duration returns the stage execution's virtual length.
func (e Event) Duration() units.Seconds { return e.End - e.Start }

// Energy returns the stage execution's metered energy.
func (e Event) Energy() units.Joules { return e.EndEnergy - e.StartEnergy }

// Consumer receives events. Consume runs synchronously on the
// producing goroutine, in attachment order; it must not block. A
// consumer may panic to abort the producing run from the outside (the
// service daemon cancels jobs this way); the panic propagates
// unwrapped to the run's caller.
type Consumer interface {
	Consume(Event)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(Event)

// Consume implements Consumer.
func (f ConsumerFunc) Consume(ev Event) { f(ev) }

// Bus fans events out to its consumers. The zero value and nil are
// both valid, inert buses: Emit on them is a nil check and nothing
// else, so producers never guard their instrumentation points.
type Bus struct {
	consumers []Consumer
}

// NewBus returns a bus with the given consumers attached in order.
func NewBus(consumers ...Consumer) *Bus {
	return &Bus{consumers: consumers}
}

// Attach subscribes c (appended after existing consumers). Attach is
// not safe concurrently with Emit; wire the bus before the run starts.
func (b *Bus) Attach(c Consumer) {
	if c == nil {
		panic("telemetry: nil consumer")
	}
	b.consumers = append(b.consumers, c)
}

// Active reports whether any consumer is attached. Producers use it to
// skip building events nobody will see — the zero-cost contract for
// uninstrumented runs.
func (b *Bus) Active() bool { return b != nil && len(b.consumers) > 0 }

// Emit fans ev out to every consumer, synchronously, in attachment
// order. On a nil or consumer-less bus it is free: no allocation, no
// side effect.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	for _, c := range b.consumers {
		c.Consume(ev)
	}
}
