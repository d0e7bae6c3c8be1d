package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestSeriesAppendAndStats(t *testing.T) {
	s := NewSeries("system", "W")
	for i := 0; i < 5; i++ {
		s.Append(units.Seconds(i), float64(100+i*10))
	}
	st := s.Summarize()
	if st.N != 5 || st.Min != 100 || st.Max != 140 || st.Mean != 120 {
		t.Errorf("stats = %+v", st)
	}
	if st.Start != 0 || st.End != 4 {
		t.Errorf("span = %v..%v", st.Start, st.End)
	}
}

func TestSeriesTimeMonotonicityEnforced(t *testing.T) {
	s := NewSeries("x", "W")
	s.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards timestamp did not panic")
		}
	}()
	s.Append(4, 2)
}

func TestBetween(t *testing.T) {
	s := NewSeries("x", "W")
	for i := 0; i < 10; i++ {
		s.Append(units.Seconds(i), float64(i))
	}
	got := s.Between(3, 6)
	if len(got) != 4 || got[0].T != 3 || got[3].T != 6 {
		t.Errorf("Between(3,6) = %v", got)
	}
	if len(s.Between(20, 30)) != 0 {
		t.Error("out-of-range Between not empty")
	}
}

func TestIntegralRectangleRule(t *testing.T) {
	s := NewSeries("p", "W")
	s.Append(0, 100)
	s.Append(1, 100)
	s.Append(3, 50)
	// 100*1 + 100*2 = 300 (last sample has no width).
	if got := s.Integral(); math.Abs(got-300) > 1e-12 {
		t.Errorf("Integral = %v, want 300", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := NewSeries("e", "W")
	if st := s.Summarize(); st.N != 0 || st.Mean != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestProfilePhases(t *testing.T) {
	p := NewProfile("case1")
	p.MarkPhase("simulation", 0, 10)
	p.MarkPhase("write", 10, 15)
	p.MarkPhase("simulation", 15, 25)
	want := []Phase{{"simulation", 0, 10}, {"write", 10, 15}, {"simulation", 15, 25}}
	if len(p.Phases) != len(want) {
		t.Fatalf("Phases = %v, want %v", p.Phases, want)
	}
	for i, ph := range p.Phases {
		if ph != want[i] {
			t.Errorf("phase %d = %v, want %v", i, ph, want[i])
		}
	}
	if d := p.Phases[1].Duration(); d != 5 {
		t.Errorf("write phase duration = %v, want 5", d)
	}
}

func TestPhaseBackwardsPanics(t *testing.T) {
	p := NewProfile("x")
	defer func() {
		if recover() == nil {
			t.Error("backwards phase did not panic")
		}
	}()
	p.MarkPhase("bad", 10, 5)
}

func TestPhaseMean(t *testing.T) {
	p := NewProfile("x")
	s := p.AddSeries("system", "W")
	for i := 0; i <= 10; i++ {
		v := 100.0
		if i >= 5 {
			v = 140
		}
		s.Append(units.Seconds(i), v)
	}
	p.MarkPhase("idle", 0, 4)
	p.MarkPhase("busy", 5, 10)
	if got := p.PhaseMean("system", "idle"); got != 100 {
		t.Errorf("idle mean = %v", got)
	}
	if got := p.PhaseMean("system", "busy"); got != 140 {
		t.Errorf("busy mean = %v", got)
	}
	if got := p.PhaseMean("nope", "busy"); got != 0 {
		t.Errorf("missing series mean = %v", got)
	}
}

func TestSeriesByName(t *testing.T) {
	p := NewProfile("x")
	p.AddSeries("a", "W")
	p.AddSeries("b", "W")
	if p.SeriesByName("b") == nil || p.SeriesByName("c") != nil {
		t.Error("SeriesByName lookup wrong")
	}
}

func TestWriteCSV(t *testing.T) {
	p := NewProfile("x")
	a := p.AddSeries("sys", "W")
	b := p.AddSeries("pkg", "W")
	a.Append(0, 100)
	a.Append(1, 110)
	b.Append(0, 40)
	b.Append(1, 45)
	var sb strings.Builder
	if err := p.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "time_s,sys_W,pkg_W" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.000,100.000,40.000") {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestASCIIPlotContainsGlyphsAndLegend(t *testing.T) {
	s := NewSeries("system", "W")
	for i := 0; i < 50; i++ {
		s.Append(units.Seconds(i), 100+20*math.Sin(float64(i)/5))
	}
	out := ASCIIPlot("Power profile", 60, 10, s)
	if !strings.Contains(out, "*") || !strings.Contains(out, "*=system") {
		t.Errorf("plot missing glyphs/legend:\n%s", out)
	}
	if !strings.Contains(out, "Power profile") {
		t.Error("plot missing title")
	}
}

func TestASCIIPlotEmptySeries(t *testing.T) {
	out := ASCIIPlot("empty", 40, 8, NewSeries("x", "W"))
	if !strings.Contains(out, "no samples") {
		t.Errorf("empty plot = %q", out)
	}
}

// Property: Integral is invariant under sample duplication (inserting a
// sample at an existing timestamp with the same value).
func TestIntegralStableUnderRedundantSamples(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) < 2 {
			return true
		}
		a := NewSeries("a", "W")
		b := NewSeries("b", "W")
		for i, v := range vals {
			a.Append(units.Seconds(i), float64(v))
			b.Append(units.Seconds(i), float64(v))
			b.Append(units.Seconds(i), float64(v)) // duplicate
		}
		return math.Abs(a.Integral()-b.Integral()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
