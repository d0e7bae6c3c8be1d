package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/trace"
	"repro/internal/units"
)

func TestCharacterizeStagesTable2(t *testing.T) {
	n := testNode(11)
	sc := CharacterizeStages(n, testConfig(), 8)

	// Table II: nnread 115.1 W / nnwrite 114.8 W total; ~10 W dynamic.
	if sc.WriteAvgTotal < 111 || sc.WriteAvgTotal > 119 {
		t.Errorf("nnwrite avg total = %v, want ~114.8", sc.WriteAvgTotal)
	}
	if sc.ReadAvgTotal < 111 || sc.ReadAvgTotal > 120 {
		t.Errorf("nnread avg total = %v, want ~115.1", sc.ReadAvgTotal)
	}
	if sc.WriteAvgDynamic < 5.5 || sc.WriteAvgDynamic > 14 {
		t.Errorf("nnwrite dynamic = %v, want ~10", sc.WriteAvgDynamic)
	}
	if sc.ReadAvgDynamic < 7 || sc.ReadAvgDynamic > 15 {
		t.Errorf("nnread dynamic = %v, want ~10.3", sc.ReadAvgDynamic)
	}
	if math.Abs(float64(sc.IdlePower)-104.7) > 1.0 {
		t.Errorf("idle baseline = %v, want ~104.7", sc.IdlePower)
	}
	if sc.AvgIODynamic <= 0 {
		t.Error("AvgIODynamic not positive")
	}
	// Fig. 6's profile must contain both stage phases with samples.
	for _, stage := range []string{StageWrite, StageRead} {
		if sc.Profile.PhaseMean("system", stage) <= 0 {
			t.Errorf("profile lacks %s phase samples", stage)
		}
	}
}

func TestAdvisorRandomWorkloadPrefersReorganization(t *testing.T) {
	// §V-D: for the fio-style random workload, reorganization saves
	// nearly as much as in-situ while keeping exploratory analysis.
	p := node.SandyBridge()
	w := WorkloadSpec{
		Name:           "random-io-app",
		ReadBytes:      4 * units.GiB,
		WriteBytes:     4 * units.GiB,
		OpSize:         16 * units.KiB,
		RandomFraction: 1,
		SpanBytes:      4 * units.GiB,
	}
	a := Advise(p, w)
	if a.Recommended != a.Reorganized.Strategy {
		t.Errorf("recommendation = %q (%s), want reorganization", a.Recommended, a.Reason)
	}
	if !a.Reorganized.Exploratory || a.InSitu.Exploratory {
		t.Error("exploratory flags wrong")
	}
	// Magnitudes: as-is ~242 KJ (238.6 + 3.6 in Table III);
	// reorganized ~7.3 KJ (4.2 + 3.1).
	if kj := a.AsIs.SystemEnergy.KJ(); kj < 200 || kj > 280 {
		t.Errorf("as-is energy = %.1f KJ, want ~242", kj)
	}
	if kj := a.Reorganized.SystemEnergy.KJ(); kj < 5 || kj > 12 {
		t.Errorf("reorganized energy = %.1f KJ, want ~7.3", kj)
	}
	if a.Reorganized.SystemEnergy >= a.AsIs.SystemEnergy/10 {
		t.Error("reorganization saved less than 10x")
	}
}

func TestAdvisorSequentialWorkloadPrefersInSitu(t *testing.T) {
	p := node.SandyBridge()
	w := WorkloadSpec{
		Name:           "sequential-app",
		ReadBytes:      4 * units.GiB,
		WriteBytes:     4 * units.GiB,
		OpSize:         128 * units.KiB,
		RandomFraction: 0,
		SpanBytes:      4 * units.GiB,
	}
	a := Advise(p, w)
	if a.Recommended != a.InSitu.Strategy {
		t.Errorf("recommendation = %q, want in-situ for already-sequential I/O", a.Recommended)
	}
	// Sequential as-is should sit near Table III's 4.2 + 3.1 KJ.
	if kj := a.AsIs.SystemEnergy.KJ(); kj < 5 || kj > 12 {
		t.Errorf("sequential as-is energy = %.1f KJ, want ~7.3", kj)
	}
}

func TestAdvisorNoIOWorkload(t *testing.T) {
	p := node.SandyBridge()
	a := Advise(p, WorkloadSpec{Name: "cpu-only", OpSize: units.KiB, SpanBytes: units.MiB})
	if !strings.Contains(a.Reason, "no significant I/O") {
		t.Errorf("reason = %q", a.Reason)
	}
}

func TestAdvisorValidation(t *testing.T) {
	p := node.SandyBridge()
	defer func() {
		if recover() == nil {
			t.Error("bad random fraction did not panic")
		}
	}()
	Advise(p, WorkloadSpec{OpSize: 1, SpanBytes: 1, RandomFraction: 2})
}

func TestPredictRandomVsSequentialReads(t *testing.T) {
	p := node.SandyBridge()
	w := WorkloadSpec{ReadBytes: 4 * units.GiB, OpSize: 16 * units.KiB, RandomFraction: 1, SpanBytes: 4 * units.GiB}
	rand := Predict(p, w, "rand", 1, true)
	seq := Predict(p, w, "seq", 0, true)
	// Table III: 2230 s vs 35.9 s.
	if rand.Time < 1800 || rand.Time > 2600 {
		t.Errorf("random-read prediction = %v, want ~2230 s", rand.Time)
	}
	if seq.Time < 30 || seq.Time > 45 {
		t.Errorf("sequential-read prediction = %v, want ~36 s", seq.Time)
	}
	if rand.DiskDynamic <= 0 || seq.DiskDynamic <= 0 {
		t.Error("disk dynamic energies must be positive")
	}
	// Random reads are seek-bound: disk dynamic power is low (~2.5 W),
	// so dynamic energy per byte is higher but average power lower.
	randAvgDyn := float64(rand.DiskDynamic) / float64(rand.Time)
	seqAvgDyn := float64(seq.DiskDynamic) / float64(seq.Time)
	if randAvgDyn >= seqAvgDyn {
		t.Errorf("random avg disk dyn %v >= sequential %v", randAvgDyn, seqAvgDyn)
	}
}

func TestPostProcessingShowsDistinctPowerPhases(t *testing.T) {
	// §V-A: the post-processing profile has two major phases
	// (simulate+write ~143 W, read+visualize ~121 W); the in-situ
	// profile has none.
	c := comparisons(t)[0]
	postSys := c.Post.Profile.SeriesByName("system")
	phases := trace.DetectPhases(postSys, 8, 4, 20)
	if len(phases) < 2 {
		t.Fatalf("post-processing profile yielded %d phases, want >= 2: %v", len(phases), phases)
	}
	// The detected extremes should bracket the paper's two phase levels.
	lo, hi := phases[0].Mean, phases[0].Mean
	for _, p := range phases {
		if p.Mean < lo {
			lo = p.Mean
		}
		if p.Mean > hi {
			hi = p.Mean
		}
	}
	// Phase 1 interleaves simulation (143 W) and write (115 W) events at
	// ~2 s cadence, so its 1 Hz mean is the ~129 W mixture; phase 2
	// (read ~115 W + viz ~121 W) averages ~117 W. See EXPERIMENTS.md.
	if hi < 125 || hi > 148 {
		t.Errorf("high phase mean = %.1f, want ~129 (mixture) to ~143", hi)
	}
	if lo < 110 || lo > 125 {
		t.Errorf("low phase mean = %.1f, want ~115-121", lo)
	}
	if hi-lo < 8 {
		t.Errorf("phases not distinct: %.1f vs %.1f", hi, lo)
	}

	insSys := c.InSitu.Profile.SeriesByName("system")
	insPhases := trace.DetectPhases(insSys, 8, 4, 20)
	if len(insPhases) >= len(phases) {
		t.Errorf("in-situ has %d phases vs post's %d; paper: no distinct phases in-situ",
			len(insPhases), len(phases))
	}
}

func TestObserveWorkloadClosesTheAdvisorLoop(t *testing.T) {
	// The Future Work runtime, end to end: run the post-processing
	// pipeline, observe its disk traffic, derive a WorkloadSpec, and ask
	// the advisor. Checkpoint traffic is streaming, so it should report
	// a low random fraction and prefer in-situ over reorganization.
	n := testNode(61)
	cs := CaseStudy{Name: "obs", Iterations: 8, IOInterval: 1}
	Run(n, PostProcessing, cs, testConfig())
	st := n.DiskStats()
	w := ObserveWorkload("proxy-app", st)

	if w.ReadBytes == 0 || w.WriteBytes == 0 {
		t.Fatalf("observation empty: %+v", w)
	}
	if w.RandomFraction > 0.3 {
		t.Errorf("streaming checkpoints observed as %.0f%% random", w.RandomFraction*100)
	}
	if w.SpanBytes <= 0 || w.OpSize <= 0 {
		t.Errorf("degenerate observation: %+v", w)
	}
	a := Advise(n.Profile, w)
	if a.Recommended != a.InSitu.Strategy {
		t.Errorf("advisor on sequential traffic recommended %q, want in-situ", a.Recommended)
	}
}

func TestObserveWorkloadDetectsRandomTraffic(t *testing.T) {
	// Drive a random-read pattern directly and confirm the observation
	// classifies it as random and the advisor flips to reorganization.
	n := testNode(62)
	f := n.FS.Create("rnd")
	n.WithIO(func() {
		f.AppendSparse(256 * units.MiB)
		f.Fsync()
		n.FS.DropCaches()
	})
	base := n.DiskStats()
	rng := n.Rand()
	n.WithIO(func() {
		for i := 0; i < 400; i++ {
			off := units.Bytes(rng.Int64n(int64(256*units.MiB - 16*units.KiB)))
			f.ReadSparseAt(off, 16*units.KiB)
		}
	})
	st := n.DiskStats()
	st.BytesRead -= base.BytesRead
	st.BytesWritten -= base.BytesWritten
	st.SeqBytes -= base.SeqBytes
	st.RandBytes -= base.RandBytes
	st.Reads -= base.Reads
	st.Writes -= base.Writes
	w := ObserveWorkload("random-reader", st)
	if w.RandomFraction < 0.7 {
		t.Errorf("random reads observed as only %.0f%% random", w.RandomFraction*100)
	}
	a := Advise(n.Profile, w)
	if a.Recommended != a.Reorganized.Strategy {
		t.Errorf("advisor on random traffic recommended %q, want reorganization", a.Recommended)
	}
}

func TestBreakdownZeroTotal(t *testing.T) {
	b := SavingsBreakdown{}
	if b.StaticSharePct() != 0 || b.DynamicSharePct() != 0 {
		t.Error("zero-total breakdown shares not zero")
	}
}

func TestRunResultEfficiency(t *testing.T) {
	r := &RunResult{Frames: 50, Energy: 25000}
	if got := r.EnergyEfficiency(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("efficiency = %v, want 2 frames/KJ", got)
	}
	zero := &RunResult{Frames: 10}
	if zero.EnergyEfficiency() != 0 {
		t.Error("zero-energy efficiency not zero")
	}
}
