package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything: the p90 of 50 samples is decided
// by five of them.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p (0..100)
// in n sorted samples: the smallest k with k/n >= p/100. The epsilon
// keeps float error in p·n/100 (99.9·10000/100 = 9990.000000000002)
// from skipping a rank.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of samples, which it
// sorts in place. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), p)-1]
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples strictly above it, and false when even
// the median has fewer.
func highestTail(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// median returns the middle of samples (the mean of the two middle
// values for an even count), sorting them in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// mean returns the arithmetic mean of samples, 0 for none.
func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return ratio(sum, float64(len(samples)))
}

// warnTail notes on standard error when the percentile p reported for
// n samples of what lies above the highest one the rule allows.
func warnTail(what string, n int, p float64) {
	if best, ok := highestTail(n); !ok || p > best {
		fmt.Fprintf(os.Stderr, "perfbench: only %d %s: p%g has fewer than %d samples beyond it\n", n, what, p, minBeyond)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
