// Package sim is the discrete-event simulation kernel: a virtual clock,
// an event queue, FCFS resources, and periodic samplers. A resource's
// busy and idle hooks run as a job starts and as the server empties;
// the NVRAM tier, the network link, the parallel-filesystem server CPUs
// and the in-transit staging CPU pass their power transitions there.
//
// The kernel is deliberately callback-based (no goroutine-per-process):
// every state change in the simulated node happens inside an event
// callback on a single goroutine, so models never need locks and runs are
// exactly reproducible. Sequential workloads (the pipelines) are written
// as plain Go code that calls Engine.Advance to spend virtual time, with
// background activity (disk write-back, power samplers) expressed as
// scheduled events that the advance loop drains in timestamp order.
//
// Events are stored by value in the engine's own binary heap, and
// scheduling one hands back no handle, so a callback built once (a
// method value, a closure made at construction) is scheduled and fired
// without allocating. Nothing cancels an event: a model that changes
// its mind checks its own state when the callback runs, as Ticker does
// with its generation counter and the disk's spindown check does with
// the media's next free time.
package sim

import (
	"fmt"

	"repro/internal/units"
)

// Time is an absolute point on the virtual clock, in seconds since the
// start of the run.
type Time = units.Seconds

// event is a scheduled callback. (when, seq) is a total order: seq
// breaks ties so that equal-time events run in scheduling order.
type event struct {
	when Time
	seq  uint64
	fn   func()
}

func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine owns the virtual clock and the event queue. The zero value is
// not usable; create engines with NewEngine.
type Engine struct {
	now    Time
	queue  []event // a binary min-heap on (when, seq)
	seq    uint64
	inside bool // true while dispatching an event callback
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. It panics if t is
// in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.queue = append(e.queue, event{when: t, seq: e.seq, fn: fn})
	e.up(len(e.queue) - 1)
}

// After schedules fn to run d from now. It panics if d is negative.
func (e *Engine) After(d units.Seconds, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Advance moves the clock forward by d, firing every event that falls
// inside the interval in timestamp order. Workload code calls this to
// "spend" virtual time; background models keep running via their events.
//
// Advance must not be called from inside an event callback — callbacks
// are instantaneous; they schedule follow-up events instead.
func (e *Engine) Advance(d units.Seconds) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance with negative duration %v", d))
	}
	if e.inside {
		panic("sim: Advance called from inside an event callback")
	}
	e.runUntil(e.now + d)
}

// AdvanceTo moves the clock to absolute time t (no-op if t <= now),
// firing intervening events.
func (e *Engine) AdvanceTo(t Time) {
	if e.inside {
		panic("sim: AdvanceTo called from inside an event callback")
	}
	if t > e.now {
		e.runUntil(t)
	}
}

// runUntil fires all events with when <= target, then sets now = target.
func (e *Engine) runUntil(target Time) {
	for len(e.queue) > 0 && e.queue[0].when <= target {
		e.step()
	}
	e.now = target
}

// step pops and fires the earliest event.
func (e *Engine) step() {
	ev := e.queue[0]
	last := len(e.queue) - 1
	e.queue[0] = e.queue[last]
	e.queue[last] = event{} // drop the callback for the collector
	e.queue = e.queue[:last]
	if last > 0 {
		e.down(0)
	}
	e.now = ev.when
	e.inside = true
	ev.fn()
	e.inside = false
}

// up restores the heap order from position i towards the root.
func (e *Engine) up(i int) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// down restores the heap order from position i towards the leaves.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}
