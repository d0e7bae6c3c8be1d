package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/xrand"
)

func TestAdvanceFiresEventsInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(3, func() { order = append(order, 3) })
	e.After(1, func() { order = append(order, 1) })
	e.After(2, func() { order = append(order, 2) })
	e.Advance(5)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", order)
	}
	if e.Now() != 5 {
		t.Errorf("Now() = %v, want 5", e.Now())
	}
}

// TestAdvanceWhile: the wait advances to each time next returns,
// firing the events in between, and ends once next returns a time not
// after now; a next that returns 0 at once leaves the clock alone.
func TestAdvanceWhile(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2.5, 4} {
		e.At(at, func() { fired = append(fired, e.Now()) })
	}
	var asked []Time
	e.AdvanceWhile(func() Time {
		asked = append(asked, e.Now())
		if e.Now() < 3 {
			return e.Now() + 1
		}
		return e.Now()
	})
	if !slices.Equal(asked, []Time{0, 1, 2, 3}) || !slices.Equal(fired, []Time{1, 2.5}) || e.Now() != 3 {
		t.Fatalf("asked at %v, fired %v, now %v; want [0 1 2 3], [1 2.5], 3", asked, fired, e.Now())
	}
	e.AdvanceWhile(func() Time { return 0 })
	if e.Now() != 3 {
		t.Errorf("a wait that ends at once moved the clock to %v", e.Now())
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(1, func() { order = append(order, i) })
	}
	e.Advance(1)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of submission order: %v", order)
		}
	}
}

func TestEventsBeyondAdvanceDoNotFire(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(10, func() { fired = true })
	e.Advance(9.999)
	if fired {
		t.Error("event at t=10 fired during Advance(9.999)")
	}
	e.Advance(0.001)
	if !fired {
		t.Error("event at t=10 did not fire by t=10")
	}
}

func TestEventAtExactBoundaryFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(5, func() { fired = true })
	e.Advance(5)
	if !fired {
		t.Error("event exactly at the advance boundary did not fire")
	}
}

func TestClockIsSetDuringCallback(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(2.5, func() { at = e.Now() })
	e.Advance(10)
	if at != 2.5 {
		t.Errorf("Now() inside callback = %v, want 2.5", at)
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	e := NewEngine()
	var times []Time
	var chain func()
	chain = func() {
		times = append(times, e.Now())
		if len(times) < 4 {
			e.After(1, chain)
		}
	}
	e.After(1, chain)
	e.Advance(10)
	want := []Time{1, 2, 3, 4}
	if len(times) != len(want) {
		t.Fatalf("chain fired %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("chain[%d] at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestAdvanceInsideCallbackPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.After(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Advance(1)
	})
	e.Advance(2)
	if !panicked {
		t.Error("Advance inside a callback did not panic")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Advance(10)
	defer func() {
		if recover() == nil {
			t.Error("At(5) with now=10 did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestAdvanceToBackwardsIsNoop(t *testing.T) {
	e := NewEngine()
	e.Advance(10)
	e.AdvanceTo(5)
	if e.Now() != 10 {
		t.Errorf("AdvanceTo backwards moved the clock to %v", e.Now())
	}
}

// TestEventOrderIsStableSortByTime: random schedules with many equal
// times, some events scheduled from inside callbacks, fire in the order
// of a stable sort of their scheduling order by time, each at its own
// time.
func TestEventOrderIsStableSortByTime(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		e := NewEngine()
		type sched struct {
			id   int
			when Time
		}
		var scheduled []sched // in scheduling order, i.e. by seq
		var fired []sched
		var schedule func(when Time)
		schedule = func(when Time) {
			id := len(scheduled)
			scheduled = append(scheduled, sched{id, when})
			e.At(when, func() {
				if e.Now() != when {
					t.Fatalf("event %d at %v fired at %v", id, when, e.Now())
				}
				fired = append(fired, sched{id, when})
				// A third of the callbacks schedule a follow-up, often
				// at the current time, where it must run after every
				// event already due then.
				if rng.Intn(3) == 0 {
					schedule(e.Now() + Time(rng.Intn(3)))
				}
			})
		}
		for i := 0; i < 50+rng.Intn(200); i++ {
			schedule(Time(rng.Intn(20)))
		}
		e.Advance(1000)
		want := slices.Clone(scheduled)
		slices.SortStableFunc(want, func(a, b sched) int { return cmp.Compare(a.when, b.when) })
		if !slices.Equal(fired, want) {
			t.Fatalf("trial %d: fired %v, want %v", trial, fired, want)
		}
	}
}

// TestScheduleFireAllocatesNothing pins the kernel's hot path: events
// live by value in the engine's heap, so scheduling and firing a
// prebuilt callback allocates nothing once the heap has grown.
func TestScheduleFireAllocatesNothing(t *testing.T) {
	e := NewEngine()
	count := 0
	fn := func() { count++ }
	if n := testing.AllocsPerRun(100, func() {
		e.At(e.Now()+1, fn)
		e.At(e.Now()+1, fn)
		e.Advance(1)
	}); n != 0 {
		t.Errorf("At + Advance: %v allocs/op, want 0", n)
	}
	if count != 202 {
		t.Errorf("%d callbacks ran, want 202", count)
	}
}

// Property: events always fire in non-decreasing timestamp order no
// matter the submission order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fireTimes []Time
		for _, d := range delays {
			e.After(units.Seconds(d)/100, func() {
				fireTimes = append(fireTimes, e.Now())
			})
		}
		e.Advance(1000)
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTickerBasic(t *testing.T) {
	e := NewEngine()
	var times []Time
	tk := NewTicker(e, 1, func(now Time) { times = append(times, now) })
	tk.Start()
	e.Advance(5)
	tk.Stop()
	e.Advance(5)
	if len(times) != 5 {
		t.Fatalf("ticker fired %d times, want 5 (ticks at 1..5): %v", len(times), times)
	}
	for i, at := range times {
		if at != Time(i+1) {
			t.Errorf("tick %d at %v, want %d", i, at, i+1)
		}
	}
	if tk.Ticks() != 5 {
		t.Errorf("Ticks() = %d, want 5", tk.Ticks())
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	var tk *Ticker
	count := 0
	tk = NewTicker(e, 1, func(now Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	e.Advance(10)
	if count != 3 {
		t.Errorf("ticker fired %d times after self-stop at 3", count)
	}
}

func TestTickerDoubleStart(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := NewTicker(e, 1, func(Time) { count++ })
	tk.Start()
	tk.Start()
	e.Advance(3)
	if count != 3 {
		t.Errorf("double-started ticker fired %d times in 3s, want 3", count)
	}
}

// TestTickerRestartBeforeStaleTick: a tick pending from before Stop
// does nothing when it comes due, so Stop and a new Start before it
// gives exactly one tick per period, counted from the new Start.
func TestTickerRestartBeforeStaleTick(t *testing.T) {
	e := NewEngine()
	var times []Time
	tk := NewTicker(e, 1, func(now Time) { times = append(times, now) })
	tk.Start()
	e.Advance(2.5)
	tk.Stop()
	e.Advance(0.25) // the stale tick is due at 3
	tk.Start()
	e.Advance(3)
	want := []Time{1, 2, 3.75, 4.75, 5.75}
	if !slices.Equal(times, want) {
		t.Errorf("ticks at %v, want %v", times, want)
	}
	if tk.Ticks() != 5 {
		t.Errorf("Ticks() = %d, want 5", tk.Ticks())
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTicker with period 0 did not panic")
		}
	}()
	NewTicker(NewEngine(), 0, func(Time) {})
}

func TestResourceFCFS(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, nil, nil)
	s1, e1 := r.Submit(10, nil)
	s2, e2 := r.Submit(5, nil)
	if s1 != 0 || e1 != 10 {
		t.Errorf("job1 start/end = %v/%v, want 0/10", s1, e1)
	}
	if s2 != 10 || e2 != 15 {
		t.Errorf("job2 queued start/end = %v/%v, want 10/15", s2, e2)
	}
	if r.BusyTime() != 15 {
		t.Errorf("BusyTime = %v, want 15", r.BusyTime())
	}
	if r.Jobs() != 2 {
		t.Errorf("Jobs = %d, want 2", r.Jobs())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, nil, nil)
	r.Submit(2, nil)
	e.Advance(10)
	if !r.Idle() {
		t.Error("resource not idle after its work completed")
	}
	s, end := r.Submit(3, nil)
	if s != 10 || end != 13 {
		t.Errorf("post-gap job start/end = %v/%v, want 10/13", s, end)
	}
}

func TestResourceDoneCallback(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, nil, nil)
	var doneAt Time = -1
	r.Submit(4, func() { doneAt = e.Now() })
	e.Advance(10)
	if doneAt != 4 {
		t.Errorf("done callback at %v, want 4", doneAt)
	}
}

// TestResourceHooks pins when a resource's power hooks run: busy at
// once for an idle server and at the queued start otherwise, one idle
// call for back-to-back jobs (at the second job's end), done ahead of
// idle, and an event the caller schedules at a job's end after Submit
// behind both.
func TestResourceHooks(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%g", what, float64(e.Now()))) }
	}
	r := NewResource(e, note("busy"), note("idle"))
	r.Submit(2, note("done1"))
	if got := strings.Join(log, " "); got != "busy@0" {
		t.Fatalf("after submitting to an idle server: %q, want busy at once", got)
	}
	_, end := r.Submit(3, note("done2"))
	e.At(end, note("after"))
	e.Advance(10)
	r.Submit(1, nil)
	e.Advance(10)
	want := "busy@0 done1@2 busy@2 done2@5 idle@5 after@5 busy@10 idle@11"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("hook order:\n got %s\nwant %s", got, want)
	}
}

// TestResourceWithoutHooksAllocatesNothing pins the disk's hot path: a
// resource without hooks or done callback schedules nothing and
// allocates nothing per job.
func TestResourceWithoutHooksAllocatesNothing(t *testing.T) {
	r := NewResource(NewEngine(), nil, nil)
	if n := testing.AllocsPerRun(100, func() { r.Submit(1, nil) }); n != 0 {
		t.Errorf("Submit without hooks: %v allocs/op, want 0", n)
	}
}

// TestResourceWithHooksAllocatesNothing: the idle check is built with
// the resource, so a job with both hooks and a done callback schedules
// three events and allocates nothing.
func TestResourceWithHooksAllocatesNothing(t *testing.T) {
	e := NewEngine()
	busy, idle, done := 0, 0, 0
	r := NewResource(e, func() { busy++ }, func() { idle++ })
	onDone := func() { done++ }
	if n := testing.AllocsPerRun(100, func() {
		r.Submit(1, onDone) // starts now: busy runs at once
		r.Submit(1, onDone) // queued: busy is an event at the first's end
		e.Advance(2)
	}); n != 0 {
		t.Errorf("Submit with hooks: %v allocs/op, want 0", n)
	}
	if busy != 202 || idle != 101 || done != 202 {
		t.Errorf("busy %d, idle %d, done %d; want 202, 101, 202", busy, idle, done)
	}
}

func TestResourceNegativeServicePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("Submit(-1) did not panic")
		}
	}()
	r.Submit(-1, nil)
}

// Property: with FCFS, total completion time equals the sum of service
// times when jobs are submitted back-to-back at t=0.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(services []uint16) bool {
		e := NewEngine()
		r := NewResource(e, nil, nil)
		var total units.Seconds
		var lastEnd Time
		for _, s := range services {
			d := units.Seconds(s) / 1000
			total += d
			_, lastEnd = r.Submit(d, nil)
		}
		return lastEnd == total || len(services) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Advance(1)
	}
}
