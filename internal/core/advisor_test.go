package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/units"
)

// advisorWorkload returns a baseline post-processing-like workload:
// a few GiB each way in 16 KiB requests over a 4 GiB span.
func advisorWorkload(randomFrac float64) WorkloadSpec {
	return WorkloadSpec{
		Name:           "test",
		ReadBytes:      2 * units.GiB,
		WriteBytes:     2 * units.GiB,
		OpSize:         16 * units.KiB,
		RandomFraction: randomFrac,
		SpanBytes:      4 * units.GiB,
	}
}

func TestAdviseRandomHeavyRecommendsReorganization(t *testing.T) {
	a := Advise(node.SandyBridge(), advisorWorkload(0.9))
	if a.Recommended != a.Reorganized.Strategy {
		t.Fatalf("random-heavy workload recommended %q, want %q (reason %q)",
			a.Recommended, a.Reorganized.Strategy, a.Reason)
	}
	if !a.Reorganized.Exploratory {
		t.Error("reorganized strategy should preserve exploratory analysis")
	}
	if a.Reorganized.SystemEnergy >= a.AsIs.SystemEnergy {
		t.Errorf("reorganization should save energy: %v >= %v",
			a.Reorganized.SystemEnergy, a.AsIs.SystemEnergy)
	}
	if !strings.Contains(a.Reason, "reorganization") {
		t.Errorf("reason %q does not mention reorganization", a.Reason)
	}
}

func TestAdviseSequentialRecommendsInSitu(t *testing.T) {
	a := Advise(node.SandyBridge(), advisorWorkload(0))
	if a.Recommended != a.InSitu.Strategy {
		t.Fatalf("sequential workload recommended %q, want %q (reason %q)",
			a.Recommended, a.InSitu.Strategy, a.Reason)
	}
	// With nothing to reorganize, both post-processing predictions
	// coincide and only eliminating the round trip helps.
	if a.Reorganized.SystemEnergy != a.AsIs.SystemEnergy {
		t.Errorf("sequential workload: reorganized %v != as-is %v",
			a.Reorganized.SystemEnergy, a.AsIs.SystemEnergy)
	}
	if a.InSitu.Exploratory {
		t.Error("in-situ strategy should not claim exploratory analysis")
	}
}

func TestAdviseNoIORecommendsAsIs(t *testing.T) {
	w := advisorWorkload(0.5)
	w.ReadBytes, w.WriteBytes = 0, 0
	a := Advise(node.SandyBridge(), w)
	if a.Recommended != a.AsIs.Strategy {
		t.Fatalf("I/O-free workload recommended %q, want %q", a.Recommended, a.AsIs.Strategy)
	}
	if a.AsIs.Time != 0 || a.AsIs.SystemEnergy != 0 {
		t.Errorf("I/O-free prediction should be zero, got %v / %v", a.AsIs.Time, a.AsIs.SystemEnergy)
	}
}

func TestPredictRandomnessPenalizesReadsOnly(t *testing.T) {
	p := node.SandyBridge()
	w := advisorWorkload(0)

	seq := Predict(p, w, "seq", 0, true)
	rnd := Predict(p, w, "rnd", 1, true)
	if rnd.Time <= seq.Time {
		t.Errorf("fully random prediction %v s not slower than sequential %v s", rnd.Time, seq.Time)
	}
	if rnd.SystemEnergy <= seq.SystemEnergy {
		t.Errorf("fully random prediction %v not costlier than sequential %v",
			rnd.SystemEnergy, seq.SystemEnergy)
	}

	// Writes drain through the elevator near-sequentially, so a
	// write-only workload pays no positioning penalty.
	wo := w
	wo.ReadBytes = 0
	woSeq := Predict(p, wo, "seq", 0, true)
	woRnd := Predict(p, wo, "rnd", 1, true)
	if woRnd.Time != woSeq.Time {
		t.Errorf("write-only random %v s != sequential %v s", woRnd.Time, woSeq.Time)
	}
}

func TestPredictDiskDynamicWithinSystemEnergy(t *testing.T) {
	p := node.SandyBridge()
	pr := Predict(p, advisorWorkload(0.5), "as-is", 0.5, true)
	if pr.DiskDynamic <= 0 || pr.DiskDynamic >= pr.SystemEnergy {
		t.Errorf("disk dynamic %v should be positive and below system %v",
			pr.DiskDynamic, pr.SystemEnergy)
	}
}

// TestPredictChargesEachProfilesIdleFloor: the four-member RAID-0 node
// idles 15 W above the single-disk node (three more spinning members),
// and Predict charges that floor for the whole predicted time.
func TestPredictChargesEachProfilesIdleFloor(t *testing.T) {
	w := advisorWorkload(0)
	hdd := Predict(node.SandyBridge(), w, "hdd", 0, true)
	raid := Predict(node.SandyBridgeRAID(4), w, "raid4", 0, true)
	want := 15 * float64(hdd.Time)
	if got := float64(raid.SystemEnergy - hdd.SystemEnergy); math.Abs(got-want) > 1e-9*want {
		t.Errorf("raid4 - hdd predicted energy = %v J, want 15 W x %v = %v J", got, hdd.Time, want)
	}
}

func TestObserveWorkload(t *testing.T) {
	st := storage.DiskStats{
		Reads:        100,
		Writes:       28,
		BytesRead:    100 * units.MiB,
		BytesWritten: 28 * units.MiB,
		SeqBytes:     96 * units.MiB,
		RandBytes:    32 * units.MiB,
		MinOffset:    1 * units.GiB,
		MaxOffset:    3 * units.GiB,
	}
	w := ObserveWorkload("observed", st)
	if w.Name != "observed" {
		t.Errorf("name %q", w.Name)
	}
	if w.ReadBytes != st.BytesRead || w.WriteBytes != st.BytesWritten {
		t.Errorf("bytes %v/%v, want %v/%v", w.ReadBytes, w.WriteBytes, st.BytesRead, st.BytesWritten)
	}
	if want := units.Bytes(1 * units.MiB); w.OpSize != want {
		t.Errorf("op size %v, want %v", w.OpSize, want)
	}
	if want := 0.25; w.RandomFraction != want {
		t.Errorf("random fraction %v, want %v", w.RandomFraction, want)
	}
	if want := units.Bytes(2 * units.GiB); w.SpanBytes != want {
		t.Errorf("span %v, want %v", w.SpanBytes, want)
	}

	// Idle stats degrade to safe positive defaults, never zeros that
	// would panic Advise.
	empty := ObserveWorkload("idle", storage.DiskStats{})
	if empty.OpSize <= 0 || empty.SpanBytes <= 0 {
		t.Errorf("idle observation yields op size %v span %v", empty.OpSize, empty.SpanBytes)
	}
	Advise(node.SandyBridge(), empty) // must not panic
}

func TestAdvisePanicsOnInvalidWorkload(t *testing.T) {
	expectPanic := func(name string, w WorkloadSpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Advise did not panic", name)
			}
		}()
		Advise(node.SandyBridge(), w)
	}

	w := advisorWorkload(0)
	w.OpSize = 0
	expectPanic("zero op size", w)

	w = advisorWorkload(0)
	w.SpanBytes = 0
	expectPanic("zero span", w)

	w = advisorWorkload(1.5)
	expectPanic("random fraction above 1", w)

	w = advisorWorkload(-0.1)
	expectPanic("negative random fraction", w)
}
