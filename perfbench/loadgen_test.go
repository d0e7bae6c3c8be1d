package main

import (
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"
)

func TestScheduleMixAndSpacing(t *testing.T) {
	mix := []classWeight{{"a", 3, false}, {"b", 1, true}}
	s := schedule(7, 3, mix)
	if len(s) != 12 {
		t.Fatalf("3 s at 4/s gave %d arrivals, want 12", len(s))
	}
	for i, a := range s {
		if want := time.Duration(i) * 250 * time.Millisecond; a.Due != want {
			t.Errorf("arrival %d due at %v, want %v", i, a.Due, want)
		}
	}
	for sec := 0; sec < 3; sec++ {
		n := map[string]int{}
		for _, a := range s[sec*4 : sec*4+4] {
			n[a.Class]++
		}
		if n["a"] != 3 || n["b"] != 1 {
			t.Errorf("second %d holds %v, want 3 a and 1 b", sec, n)
		}
	}
	for i, a := range s {
		if (a.Class == "b") != (i%4 == 2) {
			t.Errorf("arrival %d is %s; the even class b belongs in slot 2 of every second", i, a.Class)
		}
	}
	next := map[string]int{}
	for _, a := range s {
		if a.Index != next[a.Class] {
			t.Errorf("%s arrival numbered %d, want %d", a.Class, a.Index, next[a.Class])
		}
		next[a.Class]++
	}
	if !reflect.DeepEqual(s, schedule(7, 3, mix)) {
		t.Errorf("equal seeds gave different schedules")
	}
}

// TestOpenLoopTimesFromDue runs arrivals every 10 ms against a server
// that takes 30 ms each, one at a time. The dispatcher never waits for
// the server, so it stays on time, while each operation's latency,
// counted from when it was due, includes the queue ahead of it: the
// k-th finishes no earlier than 30(k+1) ms after the start, so its
// latency is at least 30(k+1) - 10k ms.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const n = 8
	arrivals := make([]arrival, n)
	for i := range arrivals {
		arrivals[i] = arrival{Due: time.Duration(i) * 10 * time.Millisecond, Class: "op", Index: i}
	}
	l := newLane(n)
	defer l.close()
	g := &generator{}
	g.run(arrivals, func(a arrival, due time.Time, finish func(error)) {
		l.tasks <- func(*http.Client) {
			time.Sleep(30 * time.Millisecond)
			finish(nil)
		}
	})
	if len(g.timings) != n || len(g.late) != n {
		t.Fatalf("recorded %d timings and %d lateness samples, want %d", len(g.timings), len(g.late), n)
	}
	// One lane serves in arrival order, so timings are in arrival order.
	for k, op := range g.timings {
		if floor := time.Duration(30*(k+1)-10*k) * time.Millisecond; op.Latency < floor {
			t.Errorf("operation %d latency %v, want at least %v: the queue ahead of it counts", k, op.Latency, floor)
		}
	}
	if got := percentile(append([]float64(nil), g.late...), 50); got > 5 {
		t.Errorf("median dispatch lateness %.1f ms: the dispatcher waited for the server", got)
	}
}

// TestLatenessCountsAStalledDispatcher starts every operation inline,
// so the dispatcher itself falls behind: arrival k is handed over about
// 20k - 10k ms late, and its latency includes that.
func TestLatenessCountsAStalledDispatcher(t *testing.T) {
	const n = 6
	arrivals := make([]arrival, n)
	for i := range arrivals {
		arrivals[i] = arrival{Due: time.Duration(i) * 10 * time.Millisecond, Class: "op", Index: i}
	}
	g := &generator{}
	g.run(arrivals, func(a arrival, due time.Time, finish func(error)) {
		time.Sleep(20 * time.Millisecond)
		finish(nil)
	})
	for k, late := range g.late {
		if floor := float64(10 * k); late < floor {
			t.Errorf("arrival %d handed over %.1f ms late, want at least %.0f", k, late, floor)
		}
	}
	lat := g.latencies("op")
	if got, floor := percentile(lat, 100), ms(time.Duration(20*n-10*(n-1))*time.Millisecond); got < floor {
		t.Errorf("worst latency %.1f ms, want at least %.1f: lateness must count", got, floor)
	}
}

// TestOnTimeCountsSuccessesWithinDeadline: an operation counts toward
// the goodput only if it succeeded within its class's deadline.
func TestOnTimeCountsSuccessesWithinDeadline(t *testing.T) {
	g := &generator{timings: []opTiming{
		{Class: "fast", Latency: 2 * time.Millisecond},
		{Class: "fast", Latency: 3 * time.Millisecond},                       // at the deadline
		{Class: "fast", Latency: 4 * time.Millisecond},                       // late
		{Class: "fast", Latency: time.Millisecond, Err: errors.New("wrong")}, // failed
		{Class: "slow", Latency: 90 * time.Millisecond},
		{Class: "other", Latency: time.Microsecond}, // no deadline
	}}
	got := g.onTime(map[string]time.Duration{"fast": 3 * time.Millisecond, "slow": 100 * time.Millisecond})
	if got != 3 {
		t.Errorf("onTime = %d, want 3", got)
	}
}
