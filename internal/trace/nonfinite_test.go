package trace

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

// mixedSeries interleaves finite readings with the NaN/Inf values a
// faulted power meter can emit.
func mixedSeries() *Series {
	s := NewSeries("meter", "W")
	vals := []float64{100, math.NaN(), 120, math.Inf(1), 140, math.Inf(-1), 160}
	for i, v := range vals {
		s.Append(units.Seconds(i), v)
	}
	return s
}

func TestSummarizeSkipsNonFinite(t *testing.T) {
	st := mixedSeries().Summarize()
	if st.N != 4 || st.NonFinite != 3 {
		t.Fatalf("stats = %+v; want N=4, NonFinite=3", st)
	}
	if st.Min != 100 || st.Max != 160 || st.Mean != 130 {
		t.Errorf("finite stats polluted: %+v", st)
	}
}

func TestSummarizeAllNonFinite(t *testing.T) {
	s := NewSeries("dead", "W")
	s.Append(0, math.NaN())
	s.Append(1, math.Inf(1))
	st := s.Summarize()
	if st.N != 0 || st.NonFinite != 2 {
		t.Errorf("stats = %+v; want N=0, NonFinite=2", st)
	}
	if st.Mean != 0 || math.IsNaN(st.Min) || math.IsInf(st.Max, 0) {
		t.Errorf("non-finite leaked into zero-sample stats: %+v", st)
	}
}

func TestIntegralSkipsNonFinite(t *testing.T) {
	if in := mixedSeries().Integral(); math.IsNaN(float64(in)) || math.IsInf(float64(in), 0) {
		t.Errorf("Integral = %v", in)
	}
}

func TestASCIIPlotDegradesOnNonFinite(t *testing.T) {
	out := ASCIIPlot("mixed", 20, 5, mixedSeries())
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("plot rendered non-finite axis labels:\n%s", out)
	}
	if !strings.Contains(out, "3 non-finite samples omitted") {
		t.Errorf("plot legend missing omission note:\n%s", out)
	}

	dead := NewSeries("dead", "W")
	dead.Append(0, math.NaN())
	out = ASCIIPlot("dead", 20, 5, dead)
	if !strings.Contains(out, "no samples; 1 non-finite omitted") {
		t.Errorf("all-non-finite plot = %q", out)
	}
}
