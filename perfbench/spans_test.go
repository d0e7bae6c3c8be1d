package main

import (
	"testing"
	"time"

	greenviz "repro"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Op: 1, Name: name, Start: start, End: end}
}

// TestSelfTimeNestedStages subtracts child coverage at every level: a
// run holding simulation and visualization stages, and a visualization
// holding cinema-variant renders that overlap each other and a frame
// flush that overruns the stage.
func TestSelfTimeNestedStages(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span(1, 0, "core.run", 0, 200*ms),
		span(2, 1, "stage.simulation", 0, 50*ms),
		span(3, 2, "solver.step", 5*ms, 45*ms),
		span(4, 1, "stage.visualization", 60*ms, 160*ms),
		span(5, 4, "cinema", 70*ms, 90*ms),
		span(6, 4, "cinema", 85*ms, 100*ms), // overlaps the first: [70,100] counts once
		span(7, 4, "flush", 150*ms, 170*ms), // only [150,160] lies inside the stage
		span(8, 0, "other.root", 0, 300*ms), // not a child of anything above
		span(9, 8, "late.child", 250*ms, 260*ms),
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 200*ms - 50*ms - 100*ms, // the two stages
		2: 50*ms - 40*ms,           // the solver step
		3: 40 * ms,
		4: 100*ms - 30*ms - 10*ms, // [70,100] and [150,160]
		5: 20 * ms,
		6: 15 * ms,
		7: 20 * ms,
		8: 300*ms - 10*ms,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d (%s) = %v, want %v", id, spans[id-1].Name, self[id], want)
		}
	}
	byName := SelfByName(spans)
	if got, want := byName["cinema"], 35*ms; got != want {
		t.Errorf("cinema self time = %v, want %v", got, want)
	}
	if got, want := TotalByName(spans)["stage.visualization"], 100*ms; got != want {
		t.Errorf("visualization total = %v, want %v", got, want)
	}
}

// TestRunTracerNesting feeds the tracer a telemetry stream with a stage
// nested inside another and a solver step inside a stage, and checks the
// parent links the spans get.
func TestRunTracerNesting(t *testing.T) {
	rec := NewRecorder()
	cfg := greenviz.DefaultConfig()
	tr := newRunTracer(rec, &cfg)
	root := tr.begin("core.run")
	emit := func(kind greenviz.TelemetryKind, stage string) {
		cfg.Telemetry.Consume(greenviz.TelemetryEvent{Kind: kind, Stage: stage})
	}
	emit(greenviz.TelemetryStageStart, "simulation")
	sim := cfg.NewSimulator()
	sim.Step(1)
	emit(greenviz.TelemetryStageDone, "simulation")
	emit(greenviz.TelemetryStageStart, "visualization")
	emit(greenviz.TelemetryStageStart, "nettransfer")
	emit(greenviz.TelemetryStageDone, "nettransfer")
	emit(greenviz.TelemetryStageDone, "visualization")
	tr.end(root)

	parents := map[string]string{}
	names := map[int]string{}
	spans := rec.Spans()
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	for _, s := range spans {
		parents[s.Name] = names[s.Parent]
		if s.Op != tr.op {
			t.Errorf("span %s has op %d, want the run's %d", s.Name, s.Op, tr.op)
		}
	}
	for child, parent := range map[string]string{
		"core.run":            "",
		"stage.simulation":    "core.run",
		"solver.step":         "stage.simulation",
		"stage.visualization": "core.run",
		"stage.nettransfer":   "stage.visualization",
	} {
		if parents[child] != parent {
			t.Errorf("%s has parent %q, want %q", child, parents[child], parent)
		}
	}
	if len(spans) != 5 {
		t.Errorf("recorded %d spans, want 5", len(spans))
	}
	if g := tr.finalField(); g == nil || len(g.Data) == 0 || &g.Data[0] == &sim.Field().Data[0] {
		t.Errorf("final field is not a copy of the solver's field")
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	id := rec.Begin(rec.NewOp(), 0, "x")
	rec.End(id)
	if id != 0 || rec.Spans() != nil {
		t.Errorf("nil recorder returned span %d and spans %v", id, rec.Spans())
	}
}
