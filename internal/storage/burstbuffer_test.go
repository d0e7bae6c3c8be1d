package storage

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

func testBB(t *testing.T, params NVRAMParams) (*sim.Engine, *Disk, *BurstBuffer, *power.Domain) {
	t.Helper()
	e := sim.NewEngine()
	p := SeagateHDD()
	p.DeterministicRotation = true
	d := NewDisk(e, p, nil, xrand.New(1))
	dom := power.NewDomain(e, "nvram", 0)
	return e, d, NewBurstBuffer(e, d, params, dom), dom
}

func TestBurstBufferAbsorbsWritesAtNVRAMSpeed(t *testing.T) {
	e, d, b, _ := testBB(t, DefaultNVRAM())
	start := e.Now()
	end := b.Submit(OpWrite, 0, 180*units.MiB, nil)
	e.AdvanceTo(end)
	elapsed := float64(e.Now() - start)
	want := 20e-6 + float64(180*units.MiB)/1.8e9
	if math.Abs(elapsed-want) > 1e-9 {
		t.Errorf("buffered write took %v, want %v (NVRAM speed)", elapsed, want)
	}
	if d.Stats().Writes != 0 {
		t.Error("write hit the backing disk synchronously")
	}
	if b.ResidentBytes() != 180*units.MiB {
		t.Errorf("resident = %v", b.ResidentBytes())
	}
}

func TestBurstBufferDrainsToBackingStore(t *testing.T) {
	e, d, b, _ := testBB(t, DefaultNVRAM())
	b.Submit(OpWrite, 0, 64*units.MiB, nil)
	// After the drain delay plus transfer time, data must be on disk.
	e.Advance(10)
	if d.Stats().BytesWritten != 64*units.MiB {
		t.Errorf("backing store got %v, want 64 MiB", d.Stats().BytesWritten)
	}
	if b.ResidentBytes() != 0 {
		t.Errorf("resident after drain = %v", b.ResidentBytes())
	}
	if !b.Idle() {
		t.Error("buffer not idle after drain")
	}
	if got := b.TierStats().DrainedBytes; got != 64*units.MiB {
		t.Errorf("DrainedBytes = %v", got)
	}
}

func TestBurstBufferReadHitWhileResident(t *testing.T) {
	params := DefaultNVRAM()
	params.DrainDelay = 1000 // keep data resident
	e, d, b, _ := testBB(t, params)
	end := b.Submit(OpWrite, 0, 32*units.MiB, nil)
	e.AdvanceTo(end)
	start := e.Now()
	end = b.Submit(OpRead, 0, 32*units.MiB, nil)
	e.AdvanceTo(end)
	elapsed := float64(e.Now() - start)
	want := 20e-6 + float64(32*units.MiB)/2.2e9
	if math.Abs(elapsed-want) > 1e-9 {
		t.Errorf("resident read took %v, want %v", elapsed, want)
	}
	if d.Stats().Reads != 0 {
		t.Error("resident read hit the backing disk")
	}
	if b.TierStats().HitBytes != 32*units.MiB {
		t.Errorf("HitBytes = %v", b.TierStats().HitBytes)
	}
}

func TestBurstBufferReadMissGoesToBacking(t *testing.T) {
	e, d, b, _ := testBB(t, DefaultNVRAM())
	end := b.Submit(OpRead, units.GiB, units.MiB, nil)
	e.AdvanceTo(end)
	if d.Stats().Reads != 1 {
		t.Errorf("backing reads = %d, want 1", d.Stats().Reads)
	}
	if b.TierStats().MissBytes != units.MiB {
		t.Errorf("MissBytes = %v", b.TierStats().MissBytes)
	}
}

func TestBurstBufferMixedReadSplits(t *testing.T) {
	params := DefaultNVRAM()
	params.DrainDelay = 1000
	e, d, b, _ := testBB(t, params)
	b.Submit(OpWrite, 0, units.MiB, nil) // first MiB resident
	end := b.Submit(OpRead, 0, 2*units.MiB, nil)
	e.AdvanceTo(end)
	if d.Stats().BytesRead != units.MiB {
		t.Errorf("backing read %v, want exactly the non-resident MiB", d.Stats().BytesRead)
	}
}

func TestBurstBufferOverflowSpills(t *testing.T) {
	params := DefaultNVRAM()
	params.Capacity = 8 * units.MiB
	params.DrainDelay = 1000
	e, d, b, _ := testBB(t, params)
	b.Submit(OpWrite, 0, 6*units.MiB, nil)
	end := b.Submit(OpWrite, 100*units.MiB, 6*units.MiB, nil) // would exceed 8 MiB
	e.AdvanceTo(end)
	if d.Stats().BytesWritten != 6*units.MiB {
		t.Errorf("spill wrote %v to backing, want 6 MiB", d.Stats().BytesWritten)
	}
}

func TestBurstBufferPowerBracketing(t *testing.T) {
	params := DefaultNVRAM()
	e, _, b, dom := testBB(t, params)
	if dom.Level() != params.IdlePower {
		t.Fatalf("idle NVRAM power = %v", dom.Level())
	}
	end := b.Submit(OpWrite, 0, 512*units.MiB, nil)
	e.AdvanceTo(end - 0.001)
	if dom.Level() != params.IdlePower+params.ActiveDyn {
		t.Errorf("active NVRAM power = %v", dom.Level())
	}
	e.AdvanceTo(end + 0.001)
	if dom.Level() != params.IdlePower {
		t.Errorf("post-transfer NVRAM power = %v", dom.Level())
	}
}

func TestBurstBufferUnderFilesystemSpeedsUpFsync(t *testing.T) {
	// The checkpoint fsync path should get dramatically cheaper with an
	// NVRAM tier absorbing the sync... but note the drain still happens
	// in the background.
	run := func(withBB bool) (units.Seconds, units.Bytes) {
		e := sim.NewEngine()
		p := SeagateHDD()
		p.DeterministicRotation = true
		d := NewDisk(e, p, nil, xrand.New(1))
		var dev Device = d
		if withBB {
			dev = NewBurstBuffer(e, d, DefaultNVRAM(), nil)
		}
		cache := NewPageCache(e, dev, smallCacheParams())
		fs := NewFileSystem(e, dev, cache, DefaultFS())
		f := fs.Create("ckpt")
		f.AppendSparse(64 * units.MiB)
		start := e.Now()
		f.Fsync()
		fsyncTime := e.Now() - start
		// Let any background drain finish.
		e.Advance(60)
		return fsyncTime, d.Stats().BytesWritten
	}
	plain, plainBytes := run(false)
	buffered, bufferedBytes := run(true)
	if float64(buffered) > 0.25*float64(plain) {
		t.Errorf("fsync with burst buffer %v, want <25%% of plain %v", buffered, plain)
	}
	// Durability: the data reaches the spinning disk either way.
	if plainBytes < 64*units.MiB || bufferedBytes < 64*units.MiB {
		t.Errorf("backing bytes plain/buffered = %v/%v, want >= 64 MiB both", plainBytes, bufferedBytes)
	}
}
