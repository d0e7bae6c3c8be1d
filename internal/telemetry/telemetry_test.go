package telemetry

import (
	"testing"
)

func TestNilAndEmptyBusAreInert(t *testing.T) {
	var nilBus *Bus
	if nilBus.Active() {
		t.Error("nil bus reports active")
	}
	nilBus.Emit(Event{Kind: KindRunStart}) // must not panic

	empty := NewBus()
	if empty.Active() {
		t.Error("consumer-less bus reports active")
	}
	empty.Emit(Event{Kind: KindRunStart})
}

func TestFanOutOrderAndValueSemantics(t *testing.T) {
	var order []string
	first := ConsumerFunc(func(ev Event) {
		order = append(order, "first:"+ev.Kind.String())
		ev.Stage = "mutated" // local copy: second must not see this
	})
	var seen Event
	second := ConsumerFunc(func(ev Event) {
		order = append(order, "second:"+ev.Kind.String())
		seen = ev
	})
	b := NewBus(first)
	b.Attach(second)
	if !b.Active() {
		t.Fatal("bus with consumers reports inactive")
	}
	b.Emit(Event{Kind: KindStageDone, Stage: "simulation", Start: 1, End: 3})
	want := []string{"first:stage-done", "second:stage-done"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("fan-out order = %v, want %v", order, want)
	}
	if seen.Stage != "simulation" {
		t.Errorf("consumer saw mutated event %q; events must fan out by value", seen.Stage)
	}
	if seen.Duration() != 2 {
		t.Errorf("Duration() = %v, want 2", seen.Duration())
	}
}

func TestAttachNilConsumerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("attaching a nil consumer did not panic")
		}
	}()
	NewBus().Attach(nil)
}

func TestEnergyHelper(t *testing.T) {
	ev := Event{Kind: KindStageDone, StartEnergy: 10, EndEnergy: 25}
	if ev.Energy() != 15 {
		t.Errorf("Energy() = %v, want 15", ev.Energy())
	}
}

func TestKindAndOpStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindRunStart:      "run-start",
		KindStageStart:    "stage-start",
		KindStageDone:     "stage-done",
		KindEnergySample:  "energy-sample",
		KindFaultInjected: "fault-injected",
		KindRetryAttempt:  "retry-attempt",
		KindRunEnd:        "run-end",
		KindSeriesDefine:  "series-define",
		Kind(250):         "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	ops := map[RetryOp]string{
		RetryWrite:      "write-retry",
		RetryRead:       "read-retry",
		RetryLostWrite:  "lost-write",
		RetryResimulate: "resimulate",
	}
	for o, want := range ops {
		if o.String() != want {
			t.Errorf("RetryOp(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}

// TestEmitNoConsumerZeroAllocs pins the zero-cost contract the whole
// refactor rests on: emitting into a consumer-less (or nil) bus must
// not allocate. The benchmark-backed variant below guards the same
// number against measurement-window artifacts.
func TestEmitNoConsumerZeroAllocs(t *testing.T) {
	b := NewBus()
	allocs := testing.AllocsPerRun(1000, func() {
		b.Emit(Event{Kind: KindStageDone, Stage: "simulation", Start: 1, End: 2})
	})
	if allocs != 0 {
		t.Fatalf("no-consumer Emit allocates %v allocs/op, want 0", allocs)
	}
}

func TestBenchmarkTelemetryNoConsumerZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion")
	}
	res := testing.Benchmark(BenchmarkTelemetryNoConsumer)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("BenchmarkTelemetryNoConsumer allocates %d allocs/op (%d B/op), want 0",
			a, res.AllocedBytesPerOp())
	}
}

// BenchmarkTelemetryNoConsumer measures the uninstrumented emit path:
// the cost every CLI run pays per would-be event.
func BenchmarkTelemetryNoConsumer(b *testing.B) {
	bus := NewBus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(Event{Kind: KindStageDone, Stage: "simulation", Start: 1, End: 2})
	}
}

// BenchmarkTelemetryFanout measures delivery to a realistic consumer
// count (recorder, ledger, meter summary, user consumer = 4).
func BenchmarkTelemetryFanout(b *testing.B) {
	var sink float64
	count := ConsumerFunc(func(ev Event) { sink += float64(ev.End - ev.Start) })
	bus := NewBus(count, count, count, count)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(Event{Kind: KindStageDone, Stage: "simulation", Start: 1, End: 2})
	}
	_ = sink
}
