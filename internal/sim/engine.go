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
package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/units"
)

// Time is an absolute point on the virtual clock, in seconds since the
// start of the run.
type Time = units.Seconds

// Event is a scheduled callback. Cancel it by calling Cancel; the kernel
// guarantees a cancelled event's callback never runs.
type Event struct {
	when      Time
	seq       uint64 // tie-break so equal-time events run FIFO
	fn        func()
	index     int // heap index, -1 when popped/cancelled
	cancelled bool
}

// Cancel prevents the event's callback from running. Cancelling an
// already-fired or already-cancelled event is a no-op.
func (e *Event) Cancel() { e.cancelled = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine owns the virtual clock and the event queue. The zero value is
// not usable; create engines with NewEngine.
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	fired  uint64
	inside bool // true while dispatching an event callback
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many event callbacks have run, for diagnostics.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute virtual time t. It panics if t is
// in the past.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := &Event{when: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d from now. It panics if d is negative.
func (e *Engine) After(d units.Seconds, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return e.At(e.now+d, fn)
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

// Drain fires all remaining events, advancing the clock as needed, until
// the queue is empty. Periodic samplers must be stopped first or Drain
// will never terminate; use AdvanceTo to bound it.
func (e *Engine) Drain() {
	for len(e.queue) > 0 {
		e.step()
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
	ev := heap.Pop(&e.queue).(*Event)
	if ev.cancelled {
		return
	}
	if ev.when > e.now {
		e.now = ev.when
	}
	e.fired++
	e.inside = true
	ev.fn()
	e.inside = false
}
