package main

import (
	"math"
	"testing"
)

// TestHostFactorsCancelHostSpeed: operations of equal work on a host
// that slows to two-thirds speed for a spell normalize to one time,
// while work that really doubles still shows double.
func TestHostFactorsCancelHostSpeed(t *testing.T) {
	var probes, times []float64
	for i := 0; i < 20; i++ {
		slow := 1.0
		if i >= 8 && i < 14 {
			slow = 1.5
		}
		probes = append(probes, probeRefMS*slow)
		times = append(times, 100*slow)
	}
	times[17] *= 2 // the program itself took twice as long
	for i, f := range hostFactors(probes) {
		want := 100.0
		if i == 17 {
			want = 200
		}
		// Within probeWindow of a spell's edge the median still sees
		// the spell's majority, so the factor is exact.
		if got := times[i] * f; math.Abs(got-want) > 1e-9 {
			t.Errorf("operation %d normalizes to %g, want %g", i, got, want)
		}
	}
}

func TestProbeRuns(t *testing.T) {
	p := newProbe()
	if d := p.run(); d <= 0 {
		t.Errorf("probe took %g ms", d)
	}
}
