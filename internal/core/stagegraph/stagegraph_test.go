package stagegraph

import (
	"errors"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// fakeClock advances only when a body or a backoff asks it to, and
// meters 1 J per virtual second.
type fakeClock struct {
	now  units.Seconds
	idle units.Seconds
}

func (c *fakeClock) Now() units.Seconds         { return c.now }
func (c *fakeClock) SystemEnergy() units.Joules { return units.Joules(c.now) }
func (c *fakeClock) Idle(d units.Seconds) {
	c.now += d
	c.idle += d
}

// stageDone collects the StageDone events of a run.
func stageDone(into *[]telemetry.Event) telemetry.Consumer {
	return telemetry.ConsumerFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindStageDone {
			*into = append(*into, ev)
		}
	})
}

func TestEngineTimesAndAnnotatesStages(t *testing.T) {
	clock := &fakeClock{}
	led := NewLedger()
	var done []telemetry.Event
	eng := New(clock, telemetry.NewBus(led, stageDone(&done)))

	eng.Run("test", func(eng *Engine) {
		for i := 0; i < 3; i++ {
			eng.Do("simulation", func() { clock.now += 2 })
			eng.Do("nnwrite", func() { clock.now += 1 })
		}
	})
	if got := led.StageTime["simulation"]; got != 6 {
		t.Errorf("simulation stage time = %v, want 6", got)
	}
	if got := led.StageTime["nnwrite"]; got != 3 {
		t.Errorf("nnwrite stage time = %v, want 3", got)
	}
	if got := led.StageEnergy["simulation"]; got != 6 {
		t.Errorf("simulation stage energy = %v, want 6", got)
	}
	// Every execution is its own StageDone, in execution order, with
	// its phase, virtual-time and energy brackets.
	if len(done) != 6 {
		t.Fatalf("stage executions = %d, want 6", len(done))
	}
	for i, ev := range done {
		phase, start, end := "simulation", units.Seconds(3*(i/2)), units.Seconds(3*(i/2)+2)
		if i%2 == 1 {
			phase, start, end = "nnwrite", end, end+1
		}
		if ev.Stage != phase || ev.Start != start || ev.End != end ||
			ev.StartEnergy != units.Joules(start) || ev.EndEnergy != units.Joules(end) {
			t.Errorf("execution %d = %s [%v,%v] [%v,%v] J, want %s [%v,%v]",
				i, ev.Stage, ev.Start, ev.End, ev.StartEnergy, ev.EndEnergy, phase, start, end)
		}
	}
}

func TestEngineToleratesBareLedger(t *testing.T) {
	clock := &fakeClock{}
	led := NewLedger()
	eng := New(clock, telemetry.NewBus(led))
	eng.Run("test", func(eng *Engine) {
		eng.Do("simulation", func() { clock.now += 5 })
	})
	if got := led.StageTime["simulation"]; got != 5 {
		t.Errorf("stage time = %v, want 5 (uninstrumented runs still keep the ledger)", got)
	}
}

// retryBackoffs collects the backoff of every write or read retry.
func retryBackoffs(into *[]units.Seconds) telemetry.Consumer {
	return telemetry.ConsumerFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindRetryAttempt && (ev.Op == telemetry.RetryWrite || ev.Op == telemetry.RetryRead) {
			*into = append(*into, ev.Backoff)
		}
	})
}

func TestWriteRetrySucceedsWithinBudget(t *testing.T) {
	clock := &fakeClock{}
	led := NewLedger()
	var backoffs []units.Seconds
	eng := New(clock, telemetry.NewBus(led, retryBackoffs(&backoffs)))
	failures := 2
	var ok bool
	eng.Run("test", func(eng *Engine) {
		ok = eng.WriteRetry(func() error {
			if failures > 0 {
				failures--
				return errors.New("transient")
			}
			return nil
		})
	})
	if !ok {
		t.Fatal("write failed despite budget covering the failures")
	}
	rec := led.Recovery
	if rec.WriteRetries != 2 || rec.LostWrites != 0 {
		t.Errorf("recovery = %+v, want 2 retries, 0 lost", rec)
	}
	// Exponential backoff: 0.5 then 1.0 seconds of charged idle time.
	if len(backoffs) != 2 || backoffs[0] != 0.5 || backoffs[1] != 1 {
		t.Errorf("backoffs = %v, want [0.5 1]", backoffs)
	}
	if clock.idle != 1.5 || rec.BackoffTime != 1.5 {
		t.Errorf("backoff charged %v (ledger %v), want 1.5", clock.idle, rec.BackoffTime)
	}
}

func TestWriteRetryExhaustionCountsLostWrite(t *testing.T) {
	led := NewLedger()
	eng := New(&fakeClock{}, telemetry.NewBus(led))
	var ok bool
	attempts := 0
	eng.Run("test", func(eng *Engine) {
		ok = eng.WriteRetry(func() error { attempts++; return errors.New("permanent") })
	})
	if ok {
		t.Fatal("write reported success despite permanent failure")
	}
	if attempts != 3 {
		t.Errorf("write attempted %d times, want 3", attempts)
	}
	rec := led.Recovery
	if rec.WriteRetries != 2 || rec.LostWrites != 1 {
		t.Errorf("recovery = %+v, want 2 retries then 1 lost write", rec)
	}
	if rec.Total() != 3 {
		t.Errorf("Total() = %d, want 3", rec.Total())
	}
}

func TestReadRetryNeverCountsLostWrites(t *testing.T) {
	clock := &fakeClock{}
	led := NewLedger()
	var backoffs []units.Seconds
	eng := New(clock, telemetry.NewBus(led, retryBackoffs(&backoffs)))
	attempts := 0
	eng.Run("test", func(eng *Engine) {
		if eng.ReadRetry(func() error { attempts++; return errors.New("corrupt") }) {
			t.Error("read reported success despite permanent corruption")
		}
	})
	if attempts != 3 {
		t.Errorf("read attempted %d times, want 3", attempts)
	}
	rec := led.Recovery
	if rec.ReadRetries != 2 || rec.LostWrites != 0 {
		t.Errorf("recovery = %+v, want 2 read retries and no lost writes", rec)
	}
	if len(backoffs) != 2 || backoffs[0] != 0.5 || backoffs[1] != 1 || clock.idle != 1.5 {
		t.Errorf("backoffs = %v (idle %v), want [0.5 1] (1.5)", backoffs, clock.idle)
	}
}
