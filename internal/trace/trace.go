// Package trace records and analyzes time series produced by the
// simulated instruments — the 1 Hz power profiles behind Figs. 5 and 6 —
// together with phase annotations (the idle / nnwrite / nnread windows
// of the Fig. 6 study) and the summary statistics the paper derives
// from them (average power, peak power, energy).
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/units"
)

// Sample is one instrument reading.
type Sample struct {
	T units.Seconds
	V float64
}

// Series is an append-only time series with non-decreasing timestamps.
type Series struct {
	Name    string
	Unit    string
	samples []Sample
}

// NewSeries creates an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Append adds a sample; timestamps must not decrease.
func (s *Series) Append(t units.Seconds, v float64) {
	if n := len(s.samples); n > 0 && t < s.samples[n-1].T {
		panic(fmt.Sprintf("trace: series %q time went backwards: %v < %v", s.Name, t, s.samples[n-1].T))
	}
	s.samples = append(s.samples, Sample{t, v})
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.samples) }

// Samples returns the backing slice (callers must not modify).
func (s *Series) Samples() []Sample { return s.samples }

// At returns the i-th sample.
func (s *Series) At(i int) Sample { return s.samples[i] }

// Between returns the samples with T in [t0, t1].
func (s *Series) Between(t0, t1 units.Seconds) []Sample {
	lo := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].T >= t0 })
	hi := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].T > t1 })
	return s.samples[lo:hi]
}

// Stats summarizes a set of samples. Non-finite values (NaN/±Inf — a
// faulted run can produce them) are excluded from the moments and
// counted in NonFinite so summaries degrade to a labeled gap instead of
// poisoning every derived number.
type Stats struct {
	N        int
	Mean     float64
	Min, Max float64
	Start    units.Seconds
	End      units.Seconds
	// NonFinite counts NaN/±Inf samples excluded from N and the moments.
	NonFinite int
}

// finite reports whether v is a usable sample value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Summarize computes stats over all samples.
func (s *Series) Summarize() Stats { return SummarizeSamples(s.samples) }

// SummarizeSamples computes stats over an explicit sample slice,
// skipping non-finite values (counted in NonFinite).
func SummarizeSamples(samples []Sample) Stats {
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	if len(samples) == 0 {
		return Stats{}
	}
	var sum float64
	for _, sm := range samples {
		if !finite(sm.V) {
			st.NonFinite++
			continue
		}
		st.N++
		sum += sm.V
		if sm.V < st.Min {
			st.Min = sm.V
		}
		if sm.V > st.Max {
			st.Max = sm.V
		}
	}
	if st.N == 0 {
		return Stats{NonFinite: st.NonFinite}
	}
	st.Mean = sum / float64(st.N)
	st.Start = samples[0].T
	st.End = samples[len(samples)-1].T
	return st
}

// Integral returns the left-rectangle integral of the series over its
// span assuming each sample holds until the next (the way a 1 Hz meter
// is integrated into energy). Non-finite samples contribute nothing —
// their interval is a gap, not a poisoned total.
func (s *Series) Integral() float64 {
	var sum float64
	for i := 0; i+1 < len(s.samples); i++ {
		if !finite(s.samples[i].V) {
			continue
		}
		dt := float64(s.samples[i+1].T - s.samples[i].T)
		// The product is rounded, so no GOARCH fuses it into the sum.
		sum += float64(s.samples[i].V * dt)
	}
	return sum
}

// Phase is a labeled interval of the run.
type Phase struct {
	Name       string
	Start, End units.Seconds
}

// Duration returns the phase length.
func (p Phase) Duration() units.Seconds { return p.End - p.Start }

// Profile groups the series and phases of one experiment run.
type Profile struct {
	Label  string
	Series []*Series
	Phases []Phase
}

// NewProfile creates an empty profile.
func NewProfile(label string) *Profile { return &Profile{Label: label} }

// AddSeries creates, attaches, and returns a new series.
func (p *Profile) AddSeries(name, unit string) *Series {
	s := NewSeries(name, unit)
	p.Series = append(p.Series, s)
	return s
}

// SeriesByName returns the named series, or nil.
func (p *Profile) SeriesByName(name string) *Series {
	for _, s := range p.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// MarkPhase appends a phase annotation.
func (p *Profile) MarkPhase(name string, start, end units.Seconds) {
	if end < start {
		panic(fmt.Sprintf("trace: phase %q ends (%v) before it starts (%v)", name, end, start))
	}
	p.Phases = append(p.Phases, Phase{name, start, end})
}

// PhaseMean averages a series over every interval of the named phase.
func (p *Profile) PhaseMean(seriesName, phaseName string) float64 {
	s := p.SeriesByName(seriesName)
	if s == nil {
		return 0
	}
	var sum float64
	var n int
	for _, ph := range p.Phases {
		if ph.Name != phaseName {
			continue
		}
		for _, sm := range s.Between(ph.Start, ph.End) {
			sum += sm.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WriteCSV emits "time,series1,series2,..." rows on the union of
// sample timestamps (values repeat their last reading).
func (p *Profile) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time_s"); err != nil {
		return err
	}
	for _, s := range p.Series {
		if _, err := fmt.Fprintf(w, ",%s_%s", s.Name, s.Unit); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	// Union of timestamps.
	tsSet := map[units.Seconds]bool{}
	for _, s := range p.Series {
		for _, sm := range s.samples {
			tsSet[sm.T] = true
		}
	}
	ts := make([]float64, 0, len(tsSet))
	for t := range tsSet {
		ts = append(ts, float64(t))
	}
	sort.Float64s(ts)
	idx := make([]int, len(p.Series))
	last := make([]float64, len(p.Series))
	for _, t := range ts {
		if _, err := fmt.Fprintf(w, "%.3f", t); err != nil {
			return err
		}
		for i, s := range p.Series {
			for idx[i] < len(s.samples) && float64(s.samples[idx[i]].T) <= t {
				last[i] = s.samples[idx[i]].V
				idx[i]++
			}
			if _, err := fmt.Fprintf(w, ",%.3f", last[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
