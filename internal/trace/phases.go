package trace

import (
	"fmt"

	"repro/internal/units"
)

// DetectedPhase is one approximately-constant-power segment of a
// profile.
type DetectedPhase struct {
	Start, End units.Seconds
	Mean       float64
}

// Duration returns the segment length.
func (p DetectedPhase) Duration() units.Seconds { return p.End - p.Start }

func (p DetectedPhase) String() string {
	return fmt.Sprintf("[%v..%v] @ %.1f", p.Start, p.End, p.Mean)
}

// DetectPhases segments a power series into sustained levels — the
// automated version of the paper's §V-A observation that the
// post-processing profile shows "distinct power phases" (simulate+write
// at ~143 W, read+visualize at ~121 W) while the in-situ profile shows
// none.
//
// threshold is the level change (in the series' unit) that counts as a
// new phase; hold is how many consecutive samples must sustain the
// change (rejects meter noise and single-sample spikes); minDuration
// merges short segments into their predecessor.
func DetectPhases(s *Series, threshold float64, hold int, minDuration units.Seconds) []DetectedPhase {
	if threshold <= 0 || hold < 1 {
		panic("trace: DetectPhases needs positive threshold and hold")
	}
	samples := s.Samples()
	if len(samples) == 0 {
		return nil
	}

	var segs []DetectedPhase
	segStart := 0
	mean := samples[0].V
	count := 1

	sustained := func(from int) bool {
		if from+hold > len(samples) {
			return false
		}
		for j := from; j < from+hold; j++ {
			if abs(samples[j].V-mean) <= threshold {
				return false
			}
		}
		return true
	}

	for i := 1; i < len(samples); i++ {
		if abs(samples[i].V-mean) > threshold && sustained(i) {
			segs = append(segs, DetectedPhase{
				Start: samples[segStart].T,
				End:   samples[i-1].T,
				Mean:  mean,
			})
			segStart = i
			mean = samples[i].V
			count = 1
			continue
		}
		count++
		mean += (samples[i].V - mean) / float64(count)
	}
	segs = append(segs, DetectedPhase{
		Start: samples[segStart].T,
		End:   samples[len(samples)-1].T,
		Mean:  mean,
	})

	// Merge short segments into their predecessor, then merge adjacent
	// segments whose means re-converged.
	segs = mergeShort(segs, minDuration)
	return mergeSimilar(segs, threshold)
}

func mergeShort(segs []DetectedPhase, minDuration units.Seconds) []DetectedPhase {
	var out []DetectedPhase
	for _, s := range segs {
		if len(out) > 0 && s.Duration() < minDuration {
			prev := &out[len(out)-1]
			prev.Mean = weightedMean(*prev, s)
			prev.End = s.End
			continue
		}
		out = append(out, s)
	}
	return out
}

func mergeSimilar(segs []DetectedPhase, threshold float64) []DetectedPhase {
	var out []DetectedPhase
	for _, s := range segs {
		if len(out) > 0 && abs(out[len(out)-1].Mean-s.Mean) <= threshold {
			prev := &out[len(out)-1]
			prev.Mean = weightedMean(*prev, s)
			prev.End = s.End
			continue
		}
		out = append(out, s)
	}
	return out
}

func weightedMean(a, b DetectedPhase) float64 {
	da, db := float64(a.Duration()), float64(b.Duration())
	if da+db == 0 {
		return (a.Mean + b.Mean) / 2
	}
	// The products are rounded, so no GOARCH fuses them into the sum.
	return (float64(a.Mean*da) + float64(b.Mean*db)) / (da + db)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
