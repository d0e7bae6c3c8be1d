package stagegraph

import (
	"errors"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// fakeClock advances only when a body or a backoff asks it to.
type fakeClock struct {
	now  units.Seconds
	idle units.Seconds
}

func (c *fakeClock) Now() units.Seconds { return c.now }
func (c *fakeClock) Idle(d units.Seconds) {
	c.now += d
	c.idle += d
}

var (
	stSim   = Stage{Phase: "simulation", On: "node"}
	stWrite = Stage{Phase: "nnwrite", On: "node"}
)

func TestEngineTimesAndAnnotatesStages(t *testing.T) {
	clock := &fakeClock{}
	prof := trace.NewProfile("test")
	led := NewLedger()
	eng := New(clock, telemetry.NewBus(trace.NewRecorder(prof), led), RetryPolicy{})

	eng.Run("test", func(x *Exec) {
		for i := 0; i < 3; i++ {
			x.Do(stSim, func() { clock.now += 2 })
			x.Do(stWrite, func() { clock.now += 1 })
		}
	})
	if got := led.StageTime["simulation"]; got != 6 {
		t.Errorf("simulation stage time = %v, want 6", got)
	}
	if got := led.StageTime["nnwrite"]; got != 3 {
		t.Errorf("nnwrite stage time = %v, want 3", got)
	}
	// The recorder annotates every execution as its own phase, in
	// execution order.
	if len(prof.Phases) != 6 {
		t.Fatalf("annotated phases = %v, want 6", prof.Phases)
	}
	for i, ph := range prof.Phases {
		want := trace.Phase{Name: "simulation", Start: units.Seconds(3 * (i / 2)), End: units.Seconds(3*(i/2) + 2)}
		if i%2 == 1 {
			want = trace.Phase{Name: "nnwrite", Start: want.End, End: want.End + 1}
		}
		if ph != want {
			t.Errorf("phase %d = %v, want %v", i, ph, want)
		}
	}
}

func TestEngineToleratesBareLedger(t *testing.T) {
	clock := &fakeClock{}
	led := NewLedger()
	eng := New(clock, telemetry.NewBus(led), RetryPolicy{})
	eng.Run("test", func(x *Exec) {
		x.Do(stSim, func() { clock.now += 5 })
	})
	if got := led.StageTime["simulation"]; got != 5 {
		t.Errorf("stage time = %v, want 5 (uninstrumented runs still keep the ledger)", got)
	}
}

func TestWriteRetrySucceedsWithinBudget(t *testing.T) {
	clock := &fakeClock{}
	led := NewLedger()
	eng := New(clock, telemetry.NewBus(led), RetryPolicy{MaxAttempts: 3, Backoff: 0.5})
	failures := 2
	var ok bool
	eng.Run("test", func(x *Exec) {
		ok = x.WriteRetry(func() error {
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
	// Exponential backoff: 0.5 + 1.0 seconds of charged idle time.
	if clock.idle != 1.5 || rec.BackoffTime != 1.5 {
		t.Errorf("backoff charged %v (ledger %v), want 1.5", clock.idle, rec.BackoffTime)
	}
}

func TestWriteRetryExhaustionCountsLostWrite(t *testing.T) {
	led := NewLedger()
	eng := New(&fakeClock{}, telemetry.NewBus(led), RetryPolicy{MaxAttempts: 3, Backoff: 0.5})
	var ok bool
	eng.Run("test", func(x *Exec) {
		ok = x.WriteRetry(func() error { return errors.New("permanent") })
	})
	if ok {
		t.Fatal("write reported success despite permanent failure")
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
	led := NewLedger()
	eng := New(&fakeClock{}, telemetry.NewBus(led), RetryPolicy{MaxAttempts: 2, Backoff: 0.25})
	eng.Run("test", func(x *Exec) {
		if x.ReadRetry(func() error { return errors.New("corrupt") }) {
			t.Error("read reported success despite permanent corruption")
		}
	})
	rec := led.Recovery
	if rec.ReadRetries != 1 || rec.LostWrites != 0 {
		t.Errorf("recovery = %+v, want 1 read retry and no lost writes", rec)
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != 3 || p.Backoff != 0.5 {
		t.Errorf("defaults = %+v, want 3 attempts / 0.5 s", p)
	}
	q := RetryPolicy{MaxAttempts: 7, Backoff: 2}.WithDefaults()
	if q.MaxAttempts != 7 || q.Backoff != 2 {
		t.Errorf("explicit policy clobbered: %+v", q)
	}
}
