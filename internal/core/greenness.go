package core

import (
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/wattsup"
)

// greenness.go is the single implementation of the paper's greenness
// metrics. Every pipeline — single-node or clustered — derives its
// average/peak power and measured energy from the run's recorded
// wall-meter series, and its energy efficiency, through these helpers;
// no pipeline computes them privately.

// meterMetrics reads the meter-derived metrics off the wall meter's
// series, which the run's trace recorder fills from the telemetry
// stream: the integrated 1 Hz meter energy (Fig. 10's measured
// companion) and the average and peak wall power (Figs. 8-9).
func meterMetrics(p *trace.Profile) (measured units.Joules, avg, peak units.Watts) {
	s := p.SeriesByName(wattsup.SeriesName)
	st := s.Summarize()
	return units.Joules(s.Integral()), units.Watts(st.Mean), units.Watts(st.Max)
}

// efficiency returns work units per kilojoule (Fig. 11's metric);
// non-positive energy yields 0.
func efficiency(work int, e units.Joules) float64 {
	if e <= 0 {
		return 0
	}
	return float64(work) / e.KJ()
}

// pctLower returns how much lower b is than a, in percent.
func pctLower(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a * 100
}
