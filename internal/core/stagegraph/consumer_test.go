package stagegraph

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// obsClock is a minimal metered virtual clock: Do brackets advance it
// so stage intervals are non-degenerate, and it meters 10 J per
// virtual second, like node.Node reads cumulative energy.
type obsClock struct{ t units.Seconds }

func (c *obsClock) Now() units.Seconds         { c.t += 0.5; return c.t }
func (c *obsClock) SystemEnergy() units.Joules { return units.Joules(10 * c.t) }
func (c *obsClock) Idle(d units.Seconds)       { c.t += d }

// recConsumer records every telemetry event in order.
type recConsumer struct {
	events []string
}

func (c *recConsumer) Consume(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindRunStart:
		c.events = append(c.events, "start:"+ev.Run)
	case telemetry.KindStageStart:
		c.events = append(c.events, "begin:"+ev.Stage)
	case telemetry.KindStageDone:
		c.events = append(c.events, fmt.Sprintf("stage:%s[%v]", ev.Stage, ev.Start < ev.End))
	case telemetry.KindRunEnd:
		c.events = append(c.events, "end:"+ev.Run)
	}
}

// TestTelemetryEventOrder verifies the event contract: RunStart, a
// StageStart/StageDone pair per execution in execution order, each
// naming its phase, RunEnd.
func TestTelemetryEventOrder(t *testing.T) {
	rec := &recConsumer{}
	eng := New(&obsClock{}, telemetry.NewBus(rec))
	eng.Run("observed", func(eng *Engine) {
		eng.Do("simulation", func() {})
		eng.Do("visualization", func() {})
		eng.Do("nettransfer", func() {})
		eng.Do("simulation", func() {})
	})
	want := []string{
		"start:observed",
		"begin:simulation",
		"stage:simulation[true]",
		"begin:visualization",
		"stage:visualization[true]",
		"begin:nettransfer",
		"stage:nettransfer[true]",
		"begin:simulation",
		"stage:simulation[true]",
		"end:observed",
	}
	if len(rec.events) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(rec.events), rec.events, len(want))
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, rec.events[i], want[i])
		}
	}
}

// TestStageDoneCarriesEnergyBracket verifies that every StageDone
// carries the stage's energy bracket, and that the Ledger folds the
// brackets into per-stage energy totals.
func TestStageDoneCarriesEnergyBracket(t *testing.T) {
	var got telemetry.Event
	led := NewLedger()
	bus := telemetry.NewBus(telemetry.ConsumerFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindStageDone {
			got = ev
		}
	}), led)
	eng := New(&obsClock{}, bus)
	eng.Run("observed", func(eng *Engine) { eng.Do("simulation", func() {}) })
	// obsClock.Now advances 0.5 per read and RunStart reads it first:
	// the stage runs from 1.0 to 1.5 → [10, 15] J.
	if got.StartEnergy != 10 || got.EndEnergy != 15 {
		t.Errorf("energy bracket = [%v, %v], want [10, 15] J", got.StartEnergy, got.EndEnergy)
	}
	if got.Energy() != 5 {
		t.Errorf("stage energy = %v J, want 5", got.Energy())
	}
	if led.StageEnergy["simulation"] != 5 {
		t.Errorf("ledger energy = %v J, want 5", led.StageEnergy["simulation"])
	}
	if got.Duration() != 0.5 {
		t.Errorf("stage duration = %v, want 0.5", got.Duration())
	}
}

// panicConsumer aborts the run on the nth StageDone — the cancellation
// mechanism the service daemon uses.
type panicConsumer struct {
	n     int
	calls int
}

func (c *panicConsumer) Consume(ev telemetry.Event) {
	if ev.Kind != telemetry.KindStageDone {
		return
	}
	c.calls++
	if c.calls >= c.n {
		panic(errAbortForTest)
	}
}

var errAbortForTest = fmt.Errorf("abort")

// TestConsumerPanicAborts verifies a consumer panic propagates
// unwrapped through Engine.Run and leaves the engine reusable.
func TestConsumerPanicAborts(t *testing.T) {
	abort := &panicConsumer{n: 3}
	eng := New(&obsClock{}, telemetry.NewBus(abort))

	func() {
		defer func() {
			if r := recover(); r != errAbortForTest {
				t.Fatalf("recovered %v, want errAbortForTest", r)
			}
		}()
		eng.Run("observed", func(eng *Engine) {
			for i := 0; i < 10; i++ {
				eng.Do("simulation", func() {})
			}
		})
		t.Fatal("run completed despite aborting consumer")
	}()
	if abort.calls != 3 {
		t.Fatalf("consumer called %d times, want 3", abort.calls)
	}

	// The engine must be reusable after an aborted run.
	led := NewLedger()
	eng.bus = telemetry.NewBus(led)
	eng.Run("observed", func(eng *Engine) { eng.Do("simulation", func() {}) })
	if led.StageTime["simulation"] <= 0 {
		t.Fatalf("run after abort timed no stage: %v", led.StageTime)
	}
}

// TestNoConsumerZeroAllocs pins the cost of the hook when nobody
// subscribes: a timed stage execution on a consumer-less bus must not
// allocate — the hot path is one branch. This guards the golden-digest
// harness' performance contract.
func TestNoConsumerZeroAllocs(t *testing.T) {
	var allocs float64
	eng := New(&obsClock{}, nil)
	eng.Run("observed", func(eng *Engine) {
		eng.Do("simulation", func() {}) // warm path
		allocs = testing.AllocsPerRun(1000, func() {
			eng.Do("simulation", func() {})
		})
	})
	if allocs != 0 {
		t.Fatalf("no-consumer Do allocates %v allocs/op, want 0", allocs)
	}
}

// TestDoNoConsumerBenchZeroAllocs runs the actual benchmark loop and
// asserts its allocs/op is exactly 0. AllocsPerRun alone once missed
// per-call heap copies of Do's arguments (they were attributed outside
// its measurement window), so this pins the same number
// BenchmarkDoNoConsumer reports.
func TestDoNoConsumerBenchZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion")
	}
	res := testing.Benchmark(BenchmarkDoNoConsumer)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("BenchmarkDoNoConsumer allocates %d allocs/op (%d B/op), want 0", a, res.AllocedBytesPerOp())
	}
}

// BenchmarkDoNoConsumer measures the per-execution engine overhead
// with no subscriber attached: the floor of Do's cost. Pipeline runs
// never take this path, since every run attaches the stage Ledger and
// the trace Recorder to its bus.
func BenchmarkDoNoConsumer(b *testing.B) {
	eng := New(&obsClock{}, nil)
	eng.Run("observed", func(eng *Engine) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Do("simulation", func() {})
		}
	})
}
