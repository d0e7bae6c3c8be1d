package core

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/node"
	"repro/internal/units"
)

// testConfig keeps host runtime low: few real sub-steps, full virtual
// charging. Virtual timing (the thing under test) is unaffected.
func testConfig() AppConfig {
	cfg := DefaultAppConfig()
	cfg.RealSubsteps = 4
	return cfg
}

func testNode(seed uint64) *node.Node {
	return node.New(node.SandyBridge(), seed)
}

// comparisons are expensive to produce (six full pipeline runs), so
// they are computed once and shared across assertions.
var (
	cmpOnce  sync.Once
	cmpCases []Comparison
)

func comparisons(t *testing.T) []Comparison {
	t.Helper()
	cmpOnce.Do(func() {
		for _, cs := range CaseStudies() {
			post := Run(testNode(1), PostProcessing, cs, testConfig())
			ins := Run(testNode(2), InSitu, cs, testConfig())
			cmpCases = append(cmpCases, Compare(post, ins))
		}
	})
	return cmpCases
}

func TestPipelinesProduceIdenticalFrames(t *testing.T) {
	for _, c := range comparisons(t) {
		if c.Post.FrameChecksum != c.InSitu.FrameChecksum {
			t.Errorf("%s: frame checksums differ: post %x, in-situ %x",
				c.Case.Name, c.Post.FrameChecksum, c.InSitu.FrameChecksum)
		}
		if c.Post.Frames == 0 {
			t.Errorf("%s: no frames rendered", c.Case.Name)
		}
	}
}

func TestCaseStudy1StageShares(t *testing.T) {
	// Paper Fig. 4: simulation 33 %, write 30 %, read 27 %, viz 10 %.
	post := comparisons(t)[0].Post
	total := float64(post.ExecTime)
	want := map[string]float64{
		StageSimulation: 33,
		StageWrite:      30,
		StageRead:       27,
		StageViz:        10,
	}
	for stage, pct := range want {
		got := float64(post.StageTime[stage]) / total * 100
		if math.Abs(got-pct) > 5 {
			t.Errorf("case 1 %s share = %.1f%%, want %v%% ± 5", stage, got, pct)
		}
	}
}

func TestCaseStudy1ExecutionTimeNearPaper(t *testing.T) {
	// Fig. 5a's x-axis runs past 300 s for the case 1 post-processing run.
	post := comparisons(t)[0].Post
	if post.ExecTime < 300 || post.ExecTime > 365 {
		t.Errorf("case 1 post-processing time = %v, want ~330 s", post.ExecTime)
	}
}

func TestEnergySavingsMatchPaperBands(t *testing.T) {
	// Fig. 10: in-situ saves 43 %, 30 %, 18 %. Case 3 lands lower here
	// because we hold the simulation time constant across case studies
	// (see EXPERIMENTS.md).
	bands := [][2]float64{{38, 48}, {26, 37}, {6, 20}}
	for i, c := range comparisons(t) {
		got := c.EnergySavingsPct()
		if got < bands[i][0] || got > bands[i][1] {
			t.Errorf("%s: energy savings = %.1f%%, want within %v", c.Case.Name, got, bands[i])
		}
	}
}

func TestEnergySavingsDecreaseWithLessIO(t *testing.T) {
	cs := comparisons(t)
	s1, s2, s3 := cs[0].EnergySavingsPct(), cs[1].EnergySavingsPct(), cs[2].EnergySavingsPct()
	if !(s1 > s2 && s2 > s3 && s3 > 0) {
		t.Errorf("savings not monotone in I/O share: %.1f, %.1f, %.1f", s1, s2, s3)
	}
}

func TestInSituAvgPowerSlightlyHigher(t *testing.T) {
	// Fig. 8: in-situ draws 8 %, 5 %, 3 % more on average; the deltas
	// shrink as I/O thins out.
	deltas := make([]float64, 0, 3)
	for _, c := range comparisons(t) {
		d := c.AvgPowerIncreasePct()
		if d < 1 || d > 11 {
			t.Errorf("%s: avg-power increase = %.1f%%, want small positive", c.Case.Name, d)
		}
		deltas = append(deltas, d)
	}
	if !(deltas[0] > deltas[2]) {
		t.Errorf("avg-power delta did not shrink with less I/O: %v", deltas)
	}
}

func TestPeakPowerEquivalent(t *testing.T) {
	// Fig. 9: no significant difference in peak power.
	for _, c := range comparisons(t) {
		if d := math.Abs(c.PeakPowerDeltaPct()); d > 3 {
			t.Errorf("%s: peak power differs by %.1f%%, want < 3%%", c.Case.Name, d)
		}
	}
}

func TestEfficiencyImprovementBands(t *testing.T) {
	// Fig. 11: 22 % to 72 % improvement depending on I/O share.
	cs := comparisons(t)
	if got := cs[0].EfficiencyImprovementPct(); got < 60 || got > 95 {
		t.Errorf("case 1 efficiency improvement = %.1f%%, want ~72%%", got)
	}
	if got := cs[2].EfficiencyImprovementPct(); got < 5 || got > 30 {
		t.Errorf("case 3 efficiency improvement = %.1f%%, want ~22%% (we land lower, see EXPERIMENTS.md)", got)
	}
	post, ins := cs[0].NormalizedEfficiencies()
	if ins != 1 || post >= 1 {
		t.Errorf("normalized efficiencies = %v/%v, want in-situ 1.0 and post < 1", post, ins)
	}
}

func TestBreakdownStaticDominates(t *testing.T) {
	// §V-C: 91 % of the savings come from reduced idling; only 9 % from
	// reduced data movement.
	c := comparisons(t)[0]
	b := c.Breakdown(10.15, 104.5)
	if share := b.StaticSharePct(); share < 85 || share > 95 {
		t.Errorf("static share = %.1f%%, want ~91%%", share)
	}
	if share := b.DynamicSharePct(); share < 5 || share > 15 {
		t.Errorf("dynamic share = %.1f%%, want ~9%%", share)
	}
	if math.Abs(float64(b.PaperDynamic+b.PaperStatic-b.Total)) > 1e-6 {
		t.Error("paper-method components do not sum to the total")
	}
	if math.Abs(float64(b.TrueDynamic+b.TrueStatic-b.Total)) > 1e-6 {
		t.Error("ground-truth components do not sum to the total")
	}
	// The two decompositions should broadly agree that static dominates.
	if float64(b.TrueStatic)/float64(b.Total) < 0.8 {
		t.Errorf("ground-truth static share = %.1f%%, want dominant",
			float64(b.TrueStatic)/float64(b.Total)*100)
	}
}

func TestMeasuredEnergyTracksGroundTruth(t *testing.T) {
	for _, c := range comparisons(t) {
		for _, r := range []*RunResult{c.Post, c.InSitu} {
			ratio := float64(r.MeasuredEnergy) / float64(r.Energy)
			if ratio < 0.97 || ratio > 1.03 {
				t.Errorf("%s %s: meter-integrated energy off by %.1f%%",
					c.Case.Name, r.Pipeline, (ratio-1)*100)
			}
		}
	}
}

func TestPostProcessingMovesFarMoreData(t *testing.T) {
	c := comparisons(t)[0]
	// Post writes ~188 MiB and reads it back per event; in-situ flushes
	// ~64 MiB once per event.
	if c.Post.BytesRead < 50*180*units.MiB {
		t.Errorf("post-processing media reads = %v, implausibly low", c.Post.BytesRead)
	}
	if c.InSitu.BytesRead > c.Post.BytesRead/10 {
		t.Errorf("in-situ media reads = %v, want far below post's %v", c.InSitu.BytesRead, c.Post.BytesRead)
	}
	if c.InSitu.BytesWritten >= c.Post.BytesWritten {
		t.Error("in-situ wrote at least as much as post-processing")
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		cs   CaseStudy
		mut  func(*AppConfig)
	}{
		{"zero iterations", CaseStudy{Name: "x", Iterations: 0, IOInterval: 1}, func(*AppConfig) {}},
		{"zero interval", CaseStudy{Name: "x", Iterations: 1, IOInterval: 0}, func(*AppConfig) {}},
		{"bad substeps", CaseStudy{Name: "x", Iterations: 1, IOInterval: 1}, func(c *AppConfig) { c.SubstepsPerIteration = 0 }},
		{"real > virtual", CaseStudy{Name: "x", Iterations: 1, IOInterval: 1}, func(c *AppConfig) { c.RealSubsteps = c.SubstepsPerIteration + 1 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			Run(testNode(1), PostProcessing, tc.cs, cfg)
		}()
	}
}

func TestCompareValidation(t *testing.T) {
	cs := CaseStudies()
	cfg := testConfig()
	cfg.Heat.NX, cfg.Heat.NY = 16, 16 // tiny: this test only checks plumbing
	cfg.Heat.Sources = nil
	small := CaseStudy{Name: "tiny", Iterations: 2, IOInterval: 1}
	post := Run(testNode(1), PostProcessing, small, cfg)
	ins := Run(testNode(2), InSitu, small, cfg)
	Compare(post, ins) // must not panic

	func() {
		defer func() {
			if recover() == nil {
				t.Error("swapped Compare args did not panic")
			}
		}()
		Compare(ins, post)
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched case studies did not panic")
			}
		}()
		other := Run(testNode(3), InSitu, CaseStudy{Name: cs[0].Name, Iterations: 2, IOInterval: 2}, cfg)
		Compare(post, other)
	}()
}

// TestRetainFrames: every pipeline keeps exactly the frames it counts,
// and the kept PNGs are the bytes FrameChecksum hashed.
func TestRetainFrames(t *testing.T) {
	cfg := testConfig()
	cfg.RetainFrames = true
	small := CaseStudy{Name: "tiny", Iterations: 2, IOInterval: 1}
	for _, p := range Pipelines() {
		res := RunOnCluster(NewClusterFor(node.SandyBridge(), p, 1), p, small, cfg)
		if res.Frames != 2 || len(res.FramePNGs) != res.Frames {
			t.Errorf("%s: retained %d of %d frames, want 2 of 2", p, len(res.FramePNGs), res.Frames)
			continue
		}
		h := fnv.New64a()
		for _, png := range res.FramePNGs {
			if len(png) < 100 {
				t.Errorf("%s: retained frame suspiciously small", p)
			}
			h.Write(png)
		}
		if h.Sum64() != res.FrameChecksum {
			t.Errorf("%s: retained frames hash to %016x, FrameChecksum %016x", p, h.Sum64(), res.FrameChecksum)
		}
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	small := CaseStudy{Name: "tiny", Iterations: 3, IOInterval: 1}
	a := Run(testNode(7), InSitu, small, testConfig())
	b := Run(testNode(7), InSitu, small, testConfig())
	if a.ExecTime != b.ExecTime || a.Energy != b.Energy || a.FrameChecksum != b.FrameChecksum {
		t.Error("identical seeds produced different runs")
	}
}
