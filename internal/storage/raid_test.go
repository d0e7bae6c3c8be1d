package storage

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

func testRAID(t *testing.T, n int) (*sim.Engine, *StripedDisk) {
	t.Helper()
	e := sim.NewEngine()
	p := SeagateHDD()
	p.DeterministicRotation = true
	return e, NewStripedDisk(e, n, p, 256*units.KiB, nil, xrand.New(1))
}

func TestRAIDCapacity(t *testing.T) {
	_, r := testRAID(t, 4)
	if r.Capacity() != 4*SeagateHDD().Capacity {
		t.Errorf("Capacity = %v", r.Capacity())
	}
}

func TestRAIDStripesAcrossMembers(t *testing.T) {
	e, r := testRAID(t, 4)
	// 1 MiB spans exactly 4 stripes of 256 KiB: one per member.
	end := r.Submit(OpWrite, 0, units.MiB, nil)
	e.AdvanceTo(end)
	for i, m := range r.Members() {
		if m.Stats().Writes != 1 {
			t.Errorf("member %d got %d writes, want 1", i, m.Stats().Writes)
		}
		if m.Stats().BytesWritten != 256*units.KiB {
			t.Errorf("member %d wrote %v, want 256 KiB", i, m.Stats().BytesWritten)
		}
	}
}

func TestRAIDParallelSpeedupOnStreams(t *testing.T) {
	// A long stream over 4 members should take ~1/4 the single-disk
	// transfer time (positioning amortized away).
	const size = 256 * units.MiB
	e1, r1 := testRAID(t, 1)
	end := r1.Submit(OpRead, 0, size, nil)
	e1.AdvanceTo(end)
	single := float64(end)

	e4, r4 := testRAID(t, 4)
	end = r4.Submit(OpRead, 0, size, nil)
	e4.AdvanceTo(end)
	quad := float64(end)

	ratio := single / quad
	if ratio < 3.0 || ratio > 4.5 {
		t.Errorf("RAID-0 x4 stream speedup = %.2fx, want ~4x", ratio)
	}
}

func TestRAIDCompletionIsSlowestMember(t *testing.T) {
	e, r := testRAID(t, 2)
	// Pre-busy member 0 with a long transfer, then submit a striped
	// request: its completion must wait for member 0.
	m0End := r.Members()[0].Submit(OpWrite, 0, 64*units.MiB, nil)
	end := r.Submit(OpWrite, 0, 512*units.KiB, nil)
	if end < m0End {
		t.Errorf("striped completion %v before busy member frees at %v", end, m0End)
	}
	e.AdvanceTo(end)
	if !r.Idle() {
		t.Error("array not idle after completion")
	}
}

func TestRAIDDoneCallback(t *testing.T) {
	e, r := testRAID(t, 3)
	var doneAt sim.Time = -1
	end := r.Submit(OpWrite, 0, 2*units.MiB, func() { doneAt = e.Now() })
	e.AdvanceTo(end + 1)
	if doneAt != end {
		t.Errorf("done at %v, want %v", doneAt, end)
	}
}

func TestRAIDOutOfBoundsPanics(t *testing.T) {
	_, r := testRAID(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("oversized request did not panic")
		}
	}()
	r.Submit(OpRead, r.Capacity()-units.KiB, units.MiB, nil)
}

func TestRAIDValidation(t *testing.T) {
	e := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero members did not panic")
		}
	}()
	NewStripedDisk(e, 0, SeagateHDD(), units.MiB, nil, xrand.New(1))
}

func TestRAIDPowerDomains(t *testing.T) {
	e := sim.NewEngine()
	bus := power.NewBus(e)
	p := SeagateHDD()
	p.DeterministicRotation = true
	r := NewStripedDisk(e, 4, p, 256*units.KiB, bus, xrand.New(1))
	// Four spinning members: 4x idle power on the bus.
	want := 4 * float64(p.IdlePower)
	if got := float64(bus.SystemPower()); math.Abs(got-want) > 1e-9 {
		t.Errorf("array idle power = %v, want %v", got, want)
	}
	end := r.Submit(OpRead, 0, 4*units.MiB, nil)
	e.AdvanceTo(end - 0.001)
	if got := float64(bus.SystemPower()); got <= want {
		t.Error("array power did not rise during striped transfer")
	}
}

func TestRAIDWorksUnderFilesystem(t *testing.T) {
	e := sim.NewEngine()
	p := SeagateHDD()
	p.DeterministicRotation = true
	arr := NewStripedDisk(e, 4, p, 256*units.KiB, nil, xrand.New(1))
	cache := NewPageCache(e, arr, smallCacheParams())
	fs := NewFileSystem(e, arr, cache, DefaultFS())
	f := fs.Create("striped")
	data := []byte("stripe me please, across four spindles")
	f.WriteAt(data, 0)
	f.Fsync()
	fs.DropCaches()
	got := make([]byte, len(data))
	f.ReadAt(got, 0)
	if string(got) != string(data) {
		t.Error("round trip through RAID-backed fs failed")
	}
	if arr.Stats().Writes == 0 {
		t.Error("no member writes recorded")
	}
}
