package fio

import (
	"sync"
	"testing"

	"repro/internal/node"
	"repro/internal/units"
)

func newNode(seed uint64) *node.Node {
	return node.New(node.SandyBridge(), seed)
}

// results are shared across assertions: the random-read run simulates
// 2000+ virtual seconds and 260k requests.
var (
	resOnce sync.Once
	results map[TestKind]Result
)

func all(t *testing.T) map[TestKind]Result {
	t.Helper()
	resOnce.Do(func() {
		results = map[TestKind]Result{}
		for _, r := range RunAll(newNode(3), DefaultConfig()) {
			results[r.Kind] = r
		}
	})
	return results
}

func TestSeqReadMatchesTable3(t *testing.T) {
	r := all(t)[SeqRead]
	// Paper: 35.9 s, 118 W, 13.5 W disk dynamic, 0.4 KJ, 4.2 KJ.
	if r.ExecTime < 33 || r.ExecTime > 41 {
		t.Errorf("time = %v, want ~35.9 s", r.ExecTime)
	}
	if r.FullSystemPower < 115 || r.FullSystemPower > 120 {
		t.Errorf("system power = %v, want ~118 W", r.FullSystemPower)
	}
	if r.DiskDynPower < 11 || r.DiskDynPower > 15 {
		t.Errorf("disk dynamic = %v, want ~13.5 W", r.DiskDynPower)
	}
	if kj := r.FullSystemEnergy.KJ(); kj < 3.8 || kj > 5.0 {
		t.Errorf("system energy = %.1f KJ, want ~4.2", kj)
	}
}

func TestRandReadMatchesTable3(t *testing.T) {
	r := all(t)[RandRead]
	// Paper: 2230 s, 107 W, 2.5 W disk dynamic, 5.5 KJ, 238.6 KJ.
	if r.ExecTime < 1900 || r.ExecTime > 2500 {
		t.Errorf("time = %v, want ~2230 s", r.ExecTime)
	}
	if r.FullSystemPower < 106 || r.FullSystemPower > 111 {
		t.Errorf("system power = %v, want ~107 W", r.FullSystemPower)
	}
	if r.DiskDynPower < 1.5 || r.DiskDynPower > 5 {
		t.Errorf("disk dynamic = %v, want ~2.5 W", r.DiskDynPower)
	}
	if kj := r.FullSystemEnergy.KJ(); kj < 200 || kj > 270 {
		t.Errorf("system energy = %.1f KJ, want ~238.6", kj)
	}
}

func TestSeqWriteMatchesTable3(t *testing.T) {
	r := all(t)[SeqWrite]
	// Paper: 27 s, 115.4 W, 10.9 W disk dynamic, 3.1 KJ system.
	if r.ExecTime < 25 || r.ExecTime > 32 {
		t.Errorf("time = %v, want ~27 s", r.ExecTime)
	}
	if r.FullSystemPower < 112 || r.FullSystemPower > 118 {
		t.Errorf("system power = %v, want ~115.4 W", r.FullSystemPower)
	}
	if r.DiskDynPower < 8 || r.DiskDynPower > 13 {
		t.Errorf("disk dynamic = %v, want ~10.9 W", r.DiskDynPower)
	}
}

func TestRandWriteNearSequentialSpeed(t *testing.T) {
	// Paper: 31 s vs 27 s sequential — the page cache + elevator absorb
	// random writes almost entirely (the pivotal §V-D observation,
	// versus the 62x penalty for random reads).
	rw := all(t)[RandWrite]
	sw := all(t)[SeqWrite]
	rr := all(t)[RandRead]
	sr := all(t)[SeqRead]
	if ratio := float64(rw.ExecTime) / float64(sw.ExecTime); ratio > 1.3 {
		t.Errorf("random/sequential write ratio = %.2f, want ~1.1", ratio)
	}
	if ratio := float64(rr.ExecTime) / float64(sr.ExecTime); ratio < 30 {
		t.Errorf("random/sequential read ratio = %.1f, want ~62", ratio)
	}
	if kj := rw.FullSystemEnergy.KJ(); kj < 2.5 || kj > 5.5 {
		t.Errorf("random-write energy = %.1f KJ, want ~3.6", kj)
	}
}

func TestHypotheticalSavingsOfSectionVD(t *testing.T) {
	// §V-D: a random-I/O app adopting in-situ saves ~242.2 KJ
	// (238.6 + 3.6); with data reorganization instead, the same app
	// spends only ~7.3 KJ (4.2 + 3.1) and keeps exploratory analysis.
	r := all(t)
	randomTotal := r[RandRead].FullSystemEnergy + r[RandWrite].FullSystemEnergy
	seqTotal := r[SeqRead].FullSystemEnergy + r[SeqWrite].FullSystemEnergy
	if kj := randomTotal.KJ(); kj < 200 || kj > 280 {
		t.Errorf("random total = %.1f KJ, want ~242.2", kj)
	}
	if kj := seqTotal.KJ(); kj < 6 || kj > 10 {
		t.Errorf("sequential total = %.1f KJ, want ~7.3", kj)
	}
	if float64(seqTotal) > 0.05*float64(randomTotal) {
		t.Error("reorganization does not recover ~97% of the random-I/O energy")
	}
}

func TestDiskDynEnergyConsistent(t *testing.T) {
	for kind, r := range all(t) {
		want := float64(r.DiskDynPower) * float64(r.ExecTime)
		if got := float64(r.DiskDynEnergy); got < want*0.999 || got > want*1.001 {
			t.Errorf("%v: DiskDynEnergy %v != power x time %v", kind, got, want)
		}
	}
}

// TestSSDDiskDynamicAboveItsFloor: the residual is taken over the
// SSD node's own idle floor, which sits below the HDD node's 104.5 W,
// so every test shows the SSD's dynamic power.
func TestSSDDiskDynamicAboveItsFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FileSize = 256 * units.MiB
	for _, r := range RunAll(node.New(node.SandyBridgeSSD(), 3), cfg) {
		if r.DiskDynPower <= 0 {
			t.Errorf("%v on the SSD: disk dynamic power = %v, want > 0 (system %v)", r.Kind, r.DiskDynPower, r.FullSystemPower)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FileSize = 64 * units.MiB
	a := Run(newNode(9), RandWrite, cfg)
	b := Run(newNode(9), RandWrite, cfg)
	if a.ExecTime != b.ExecTime || a.FullSystemEnergy != b.FullSystemEnergy {
		t.Error("same seed produced different fio results")
	}
}

func TestRunValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero file size did not panic")
		}
	}()
	Run(newNode(1), SeqRead, Config{})
}

func TestRunCleansUpFile(t *testing.T) {
	n := newNode(5)
	cfg := DefaultConfig()
	cfg.FileSize = 64 * units.MiB
	Run(n, SeqWrite, cfg)
	if n.FS.Open("fio-2.dat") != nil {
		t.Error("fio left its test file behind")
	}
}
