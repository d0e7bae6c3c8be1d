package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// TestHighestTail pins the rule: report the highest percentile that has
// at least ten samples beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // p99 is sample 990: 10 beyond
		{999, 95, true},  // p99 is sample 990: 9 beyond
		{200, 95, true},  // p95 is sample 190: 10 beyond
		{100, 90, true},  // p90 is sample 90: 10 beyond
		{99, 75, true},   // p90 is sample 90: 9 beyond
		{40, 75, true},   // p75 is sample 30: 10 beyond
		{20, 50, true},   // the median is sample 10: 10 beyond
		{19, 0, false},   // the median is sample 10: 9 beyond
		{10000, 99.9, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("highestTail(%d) = p%g leaves %d beyond", c.n, got, c.n-rank(c.n, got))
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
}
