package sim

import "repro/internal/units"

// Resource is a single FCFS server: jobs submitted while the server is
// busy queue behind it. Its two hooks carry the server's power
// transitions, so a caller states them once, at construction: busy
// runs as each job starts and idle when a job ends with nothing queued
// behind it. The NVRAM burst-buffer tier, the network link's transmit
// queue, each parallel-filesystem server's CPU and the in-transit
// staging node's CPU set them; the disk, whose seek and transfer
// levels change per request, passes nil hooks and brackets its own.
//
// The idle check is built once, with the resource: an event fires
// exactly at its time, so a job's end event finds the server quiet
// when freeAt <= now. Submitting a job therefore allocates nothing,
// hooks or none.
type Resource struct {
	engine *Engine
	// onBusy is the busy hook (nil for none); idleIfQuiet runs the idle
	// hook when nothing has queued behind the job whose end it marks
	// (nil when there is no idle hook).
	onBusy, idleIfQuiet func()
	// freeAt is the virtual time the server next becomes idle.
	freeAt Time
	// busy accumulates total busy time, for utilization accounting.
	busy units.Seconds
	jobs uint64
}

// NewResource returns an idle FCFS server on engine. busy (may be nil)
// runs as each job starts, at once if it starts now; idle (may be nil)
// runs when a job ends and no later job has queued behind it.
func NewResource(engine *Engine, busy, idle func()) *Resource {
	r := &Resource{engine: engine, onBusy: busy}
	if idle != nil {
		r.idleIfQuiet = func() {
			if r.freeAt <= r.engine.Now() {
				idle()
			}
		}
	}
	return r
}

// Submit enqueues a job of the given service duration and returns the
// virtual times at which the job starts and completes. If done is not
// nil it is scheduled as an event at the completion time, ahead of the
// idle hook; an event the caller schedules at end after Submit returns
// runs after both.
//
// Submit does not advance the clock; foreground callers that must wait
// for completion pass the returned end time to Engine.AdvanceTo.
func (r *Resource) Submit(service units.Seconds, done func()) (start, end Time) {
	if service < 0 {
		panic("sim: negative service time")
	}
	start = r.engine.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + service
	r.freeAt = end
	r.busy += service
	r.jobs++
	if done != nil {
		r.engine.At(end, done)
	}
	if r.onBusy != nil {
		if start <= r.engine.Now() {
			r.onBusy()
		} else {
			r.engine.At(start, r.onBusy)
		}
	}
	if r.idleIfQuiet != nil {
		r.engine.At(end, r.idleIfQuiet)
	}
	return start, end
}

// FreeAt returns the time the server next becomes idle (<= now when idle).
func (r *Resource) FreeAt() Time { return r.freeAt }

// Idle reports whether the server has no queued or running work.
func (r *Resource) Idle() bool { return r.freeAt <= r.engine.Now() }

// BusyTime returns the cumulative service time performed.
func (r *Resource) BusyTime() units.Seconds { return r.busy }

// Jobs returns the number of jobs submitted.
func (r *Resource) Jobs() uint64 { return r.jobs }
