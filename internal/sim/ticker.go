package sim

import (
	"fmt"

	"repro/internal/units"
)

// Ticker invokes a callback at a fixed virtual-time period, like the
// 1 Hz samplers of the Wattsup meter and the RAPL monitor. The first
// tick fires one period after Start.
//
// Stop cancels nothing in the engine: it bumps a generation counter,
// and the tick still pending from the earlier Start fires as a no-op.
// Each Start builds one tick callback for its generation, which
// reschedules itself, so ticking allocates nothing.
type Ticker struct {
	engine  *Engine
	period  units.Seconds
	fn      func(now Time)
	gen     uint64 // bumped by Stop; a tick of an older generation is stale
	running bool
	ticks   uint64
}

// NewTicker creates a stopped ticker on engine with the given period.
// It panics if period is not positive.
func NewTicker(engine *Engine, period units.Seconds, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker period %v must be positive", period))
	}
	return &Ticker{engine: engine, period: period, fn: fn}
}

// Start begins ticking. Starting a running ticker is a no-op.
func (t *Ticker) Start() {
	if t.running {
		return
	}
	t.running = true
	gen := t.gen
	var tick func()
	tick = func() {
		if t.gen != gen {
			return
		}
		t.ticks++
		t.fn(t.engine.Now())
		if t.gen == gen {
			t.engine.After(t.period, tick)
		}
	}
	t.engine.After(t.period, tick)
}

// Stop halts the ticker; the pending tick becomes a no-op.
func (t *Ticker) Stop() {
	if !t.running {
		return
	}
	t.running = false
	t.gen++
}

// Ticks reports how many times the callback has fired.
func (t *Ticker) Ticks() uint64 { return t.ticks }

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.running }
