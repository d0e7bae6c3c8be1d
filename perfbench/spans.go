package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, in host time since
// the recorder's epoch. Spans of one operation (a pipeline run, a fio
// suite, a daemon request) share Op; Parent is the ID of the span that
// caused it, 0 for a root.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the benchmark writes them out.
// A nil Recorder records nothing, so untraced runs pass nil and pay one
// branch per boundary.
type Recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []Span
	nextID int
	nextOp int
}

// NewRecorder starts a recorder whose clock reads zero now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// now returns host time on the recorder's clock.
func (r *Recorder) now() time.Duration { return time.Since(r.epoch) }

// NewOp allocates an operation identifier; 0 from a nil recorder.
func (r *Recorder) NewOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// Begin opens a span and returns its ID; 0 from a nil recorder.
func (r *Recorder) Begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.spans = append(r.spans, Span{ID: r.nextID, Parent: parent, Op: op, Name: name, Start: start, End: -1})
	return r.nextID
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	// IDs are dense and assigned in append order.
	r.spans[id-1].End = end
}

// Spans returns a copy of every closed span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes a header line (the provenance block) and then one
// span per line to path.
func (r *Recorder) WriteJSONL(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// SelfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that its children cover.
// Overlapping children count once, and the part of a child outside its
// parent counts not at all.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// SelfByName sums self time per span name over spans.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// TotalByName sums span durations per name.
func TotalByName(spans []Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Duration()
	}
	return out
}

// DurationsOf returns the durations of every span named name, in ms.
func DurationsOf(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.Duration()))
		}
	}
	return out
}
