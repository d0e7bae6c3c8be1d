package main

import (
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

// arrival is one operation of an open-loop schedule.
type arrival struct {
	// Due is when the operation is due, from the schedule's start.
	Due time.Duration
	// Class names the kind of operation; Index numbers it within its
	// class, from 0, in due order.
	Class string
	Index int
}

// classWeight is how many operations of a class each second holds.
// An Even class sits at evenly spaced slots of every second instead of
// seed-shuffled ones, so heavy operations never bunch up: how they
// overlap each other and the light traffic is the same in every
// second and for every seed.
type classWeight struct {
	Class  string
	PerSec int
	Even   bool
}

// schedule returns the open-loop arrivals of seconds seconds: evenly
// spaced at the summed rate, with each second's slots holding exactly
// PerSec operations of every class, the Even classes at fixed evenly
// spaced slots and the rest in a seed-shuffled order. Equal seeds give
// equal schedules; every second has the same mix.
func schedule(seed uint64, seconds int, mix []classWeight) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5c4ed))
	n := 0
	for _, c := range mix {
		n += c.PerSec
	}
	fixed := make([]string, n) // "" where a shuffled class goes
	var shuffled []string
	for _, c := range mix {
		if !c.Even {
			for i := 0; i < c.PerSec; i++ {
				shuffled = append(shuffled, c.Class)
			}
			continue
		}
		for i := 0; i < c.PerSec; i++ {
			slot := (2*i + 1) * n / (2 * c.PerSec)
			for fixed[slot] != "" {
				slot = (slot + 1) % n
			}
			fixed[slot] = c.Class
		}
	}
	gap := time.Second / time.Duration(n)
	counts := map[string]int{}
	var out []arrival
	for s := 0; s < seconds; s++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		next := 0
		for _, c := range fixed {
			if c == "" {
				c = shuffled[next]
				next++
			}
			out = append(out, arrival{Due: time.Duration(len(out)) * gap, Class: c, Index: counts[c]})
			counts[c]++
		}
	}
	return out
}

// lane is one client connection: tasks run one at a time, in the order
// they were queued, over a transport that never opens a second
// connection.
type lane struct {
	client *http.Client
	tasks  chan func(*http.Client)
	done   chan struct{}
}

// newLane starts a lane that can hold capacity queued tasks without
// blocking the sender; size it to the number of tasks it will get.
func newLane(capacity int) *lane {
	l := &lane{
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}},
		tasks: make(chan func(*http.Client), capacity),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		for t := range l.tasks {
			t(l.client)
		}
	}()
	return l
}

// close stops the lane after its queued tasks and releases its
// connection.
func (l *lane) close() {
	close(l.tasks)
	<-l.done
	l.client.CloseIdleConnections()
}

// opTiming is one finished operation, timed from when it was due.
type opTiming struct {
	Class   string
	Latency time.Duration // due → completion
	Err     error
}

// generator runs a schedule open-loop: a dispatcher hands each arrival
// to start at its due time whatever is still in flight, so a stall
// delays every later operation and shows in their latency. Lateness is
// how far behind its due time the dispatcher handed an arrival over; a
// generator that runs late measures itself, not the system.
type generator struct {
	start time.Time

	mu      sync.Mutex
	late    []float64 // ms per arrival
	timings []opTiming
	wg      sync.WaitGroup
}

// run dispatches every arrival and waits until each has finished.
// start(a, due, finish) begins arrival a and must call finish exactly
// once when the operation completes.
func (g *generator) run(arrivals []arrival, start func(a arrival, due time.Time, finish func(error))) {
	g.start = time.Now()
	g.late = make([]float64, 0, len(arrivals))
	for _, a := range arrivals {
		due := g.start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		g.late = append(g.late, ms(time.Since(due)))
		g.wg.Add(1)
		class := a.Class
		start(a, due, func(err error) {
			g.record(opTiming{Class: class, Latency: time.Since(due), Err: err})
			g.wg.Done()
		})
	}
	g.wg.Wait()
}

func (g *generator) record(t opTiming) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.timings = append(g.timings, t)
}

// latencies returns the ms latencies of the successful operations of
// class.
func (g *generator) latencies(class string) []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []float64
	for _, t := range g.timings {
		if t.Class == class && t.Err == nil {
			out = append(out, ms(t.Latency))
		}
	}
	return out
}

// onTime counts the successful operations that finished within their
// class's deadline of their due time; a class without a deadline has
// none on time.
func (g *generator) onTime(deadline map[string]time.Duration) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, t := range g.timings {
		if d, ok := deadline[t.Class]; ok && t.Err == nil && t.Latency <= d {
			n++
		}
	}
	return n
}
