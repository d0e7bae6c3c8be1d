package node

import (
	"math"
	"testing"

	"repro/internal/rapl"
	"repro/internal/units"
)

// quiet returns a SandyBridge node with stochastic parts disabled so
// power levels are exact.
func quiet(seed uint64) *Node {
	p := SandyBridge()
	p.OSNoiseSigma = 0
	p.Disk.DeterministicRotation = true
	return New(p, seed)
}

// TestIdlePowerCalibration: the profile-only idle floor equals a fresh
// node's wall power bit for bit on every storage configuration, and is
// DESIGN.md §3's 42 pkg + 10 dram + 5 disk + 47.5 rest = 104.5 W on
// the paper's node.
func TestIdlePowerCalibration(t *testing.T) {
	for _, p := range []Profile{SandyBridge(), SandyBridgeSSD(), SandyBridgeRAID(4), SandyBridgeNVRAM()} {
		if got, want := IdlePower(p), New(p, 1).Bus.SystemPower(); got != want {
			t.Errorf("%s: IdlePower = %v, fresh bus = %v", p.Name, got, want)
		}
	}
	if got := IdlePower(SandyBridge()); got != 104.5 {
		t.Errorf("HDD node IdlePower = %v, want 104.5", got)
	}
}

func TestSimulationPhasePowerCalibration(t *testing.T) {
	n := quiet(1)
	n.setLoad(n.Profile.SimCores, 1.0, n.Profile.SimDRAMGBs)
	got := float64(n.SystemPower())
	// Paper §V-A: the simulation phase draws ~143 W.
	if got < 141 || got > 145 {
		t.Errorf("simulation-phase power = %v, want ~143", got)
	}
}

func TestVisualizationPhasePowerCalibration(t *testing.T) {
	n := quiet(1)
	n.setLoad(n.Profile.VizCores, 0.85, n.Profile.VizDRAMGBs)
	got := float64(n.SystemPower())
	// Paper §V-A: the visualization phase draws ~121 W.
	if got < 118.5 || got > 123.5 {
		t.Errorf("visualization-phase power = %v, want ~121", got)
	}
}

func TestComputeAdvancesCalibratedTime(t *testing.T) {
	n := quiet(1)
	start := n.Now()
	updates := uint64(n.Profile.CellUpdateRate * 2.18) // one paper iteration
	n.Compute(updates)
	elapsed := float64(n.Now() - start)
	if math.Abs(elapsed-2.18) > 1e-9 {
		t.Errorf("Compute took %v, want 2.18 s", elapsed)
	}
	if got := float64(n.SystemPower()); math.Abs(got-104.5) > 0.01 {
		t.Errorf("power after Compute = %v, want idle", got)
	}
}

func TestComputeEnergyMatchesPowerTimesTime(t *testing.T) {
	n := quiet(1)
	e0 := n.SystemEnergy()
	n.setLoad(n.Profile.SimCores, 1.0, n.Profile.SimDRAMGBs)
	p := n.SystemPower()
	n.idleLoad()
	e0 = n.SystemEnergy()
	n.Compute(uint64(n.Profile.CellUpdateRate)) // exactly 1 s of compute
	got := float64(n.SystemEnergy() - e0)
	if math.Abs(got-float64(p)) > 0.01 {
		t.Errorf("1 s of compute consumed %v J, want %v", got, p)
	}
}

func TestRenderCost(t *testing.T) {
	n := quiet(1)
	// 512x512 pixels + 3 isolines over 127x127 cells + ~1 MiB PNG
	// must land near the paper's ~0.65 s per-frame visualization cost
	// (10 % of case study 1's execution time over 50 events).
	cost := float64(n.RenderCost(512*512, 3*127*127, units.MiB))
	if cost < 0.55 || cost > 0.8 {
		t.Errorf("render cost = %v s, want ~0.65", cost)
	}
}

func TestWithIORestoresIdle(t *testing.T) {
	n := quiet(1)
	n.WithIO(func() {
		if got := float64(n.SystemPower()); math.Abs(got-104.5) < 0.1 {
			t.Error("I/O operating point identical to idle")
		}
		n.Engine.Advance(1)
	})
	if got := float64(n.SystemPower()); math.Abs(got-104.5) > 0.01 {
		t.Errorf("power after WithIO = %v, want idle", got)
	}
}

func TestIOPhasePowerWithWriteStream(t *testing.T) {
	n := quiet(1)
	// Stream a write through cache + media: during the drain the system
	// should sit near the paper's ~115 W write-stage level.
	f := n.FS.Create("w")
	var during float64
	n.WithIO(func() {
		f.AppendSparse(256 * units.MiB)
		n.Engine.After(0.7, func() { during = float64(n.SystemPower()) })
		f.Fsync()
	})
	if during < 112 || during > 118.5 {
		t.Errorf("write-stage system power = %v, want ~115", during)
	}
}

func TestDeterminismAcrossNodes(t *testing.T) {
	run := func() (units.Seconds, units.Joules) {
		p := SandyBridge()
		p.Disk.DeterministicRotation = false // exercise the rng path
		n := New(p, 42)
		f := n.FS.Create("x")
		n.WithIO(func() {
			f.AppendSparse(64 * units.MiB)
			f.Fsync()
		})
		n.StopNoise()
		return n.Now(), n.SystemEnergy()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Errorf("same seed diverged: %v/%v vs %v/%v", t1, e1, t2, e2)
	}
}

func TestOSNoisePerturbsPackage(t *testing.T) {
	p := SandyBridge()
	p.Disk.DeterministicRotation = true
	n := New(p, 7)
	inst := n.NewInstruments("noise", nil)
	inst.Start()
	n.Idle(60)
	inst.Stop()
	n.StopNoise()
	st := inst.Profile.SeriesByName("system").Summarize()
	if st.Max-st.Min < 0.5 {
		t.Error("OS noise produced flat profile")
	}
	if math.Abs(st.Mean-104.7) > 1.0 { // +0.2 W RAPL overhead
		t.Errorf("noisy idle mean = %v, want ~104.7", st.Mean)
	}
}

// TestMonitorOverheadSurvivesLoadChanges: a running RAPL monitor adds
// its 0.2 W to the package for as long as it runs, across the load
// changes of every Compute. The fans see it like any package draw: the
// package and DRAM stay at or above FanRef throughout, so the wall
// pays FanCoeff on top.
func TestMonitorOverheadSurvivesLoadChanges(t *testing.T) {
	run := func(metered bool) (pkg, wall units.Joules, elapsed units.Seconds) {
		n := quiet(1)
		dom := n.Bus.Domain("package")
		mon := rapl.NewMonitor(n.Engine, n.MSR, nil)
		if metered {
			mon.Start()
		}
		start, p0, w0 := n.Now(), dom.Energy(), n.SystemEnergy()
		for i := 0; i < 100; i++ {
			n.Compute(uint64(n.Profile.CellUpdateRate))
		}
		mon.Stop()
		return dom.Energy() - p0, n.SystemEnergy() - w0, units.Seconds(n.Now() - start)
	}
	barePkg, bareWall, elapsed := run(false)
	pkg, wall, _ := run(true)
	overhead := float64(rapl.Overhead) * float64(elapsed)
	if got := float64(pkg - barePkg); math.Abs(got-overhead) > 1e-6 {
		t.Errorf("package energy with monitor - without = %.6f J, want %.6f J", got, overhead)
	}
	want := overhead * (1 + quiet(1).Profile.FanCoeff)
	if got := float64(wall - bareWall); math.Abs(got-want) > 1e-6 {
		t.Errorf("wall energy with monitor - without = %.6f J, want %.6f J (bare %.6f J)", got, want, float64(bareWall))
	}
}

func TestStopNoiseRestoresBaseline(t *testing.T) {
	p := SandyBridge()
	p.Disk.DeterministicRotation = true
	n := New(p, 7)
	n.Idle(10)
	n.StopNoise()
	if got := float64(n.SystemPower()); math.Abs(got-104.5) > 0.01 {
		t.Errorf("power after StopNoise = %v, want 104.5", got)
	}
}

func TestInstrumentsRecordBothMeters(t *testing.T) {
	n := quiet(3)
	inst := n.NewInstruments("run", nil)
	inst.Start()
	n.Idle(10)
	inst.Stop()
	sys := inst.Profile.SeriesByName("system")
	pkg := inst.Profile.SeriesByName("rapl.PKG")
	dram := inst.Profile.SeriesByName("rapl.DRAM")
	if sys.Len() != 10 || pkg.Len() != 10 || dram.Len() != 10 {
		t.Fatalf("sample counts = %d/%d/%d, want 10 each", sys.Len(), pkg.Len(), dram.Len())
	}
	if math.Abs(pkg.At(5).V-42.2) > 0.3 {
		t.Errorf("RAPL PKG idle = %v, want ~42.2 (incl. monitor overhead)", pkg.At(5).V)
	}
	if math.Abs(dram.At(5).V-10) > 0.2 {
		t.Errorf("RAPL DRAM idle = %v, want ~10", dram.At(5).V)
	}
}

func TestSpecTable(t *testing.T) {
	n := quiet(1)
	rows := n.Spec()
	if len(rows) != 8 {
		t.Fatalf("Table I rows = %d, want 8", len(rows))
	}
	if rows[0].Value != "2x Intel Xeon E5-2665" {
		t.Errorf("CPU row = %q", rows[0].Value)
	}
	if rows[4].Value != "64GiB" {
		t.Errorf("memory row = %q", rows[4].Value)
	}
}

func TestRAIDNodeVariant(t *testing.T) {
	p := SandyBridgeRAID(4)
	p.OSNoiseSigma = 0
	p.Disk.DeterministicRotation = true
	n := New(p, 1)
	// Four spinning disks raise the idle floor by 3 extra disks' 5 W.
	want := 104.5 + 3*5
	if got := float64(n.SystemPower()); math.Abs(got-want) > 0.01 {
		t.Errorf("RAID idle power = %v, want %v", got, want)
	}
	f := n.FS.Create("x")
	n.WithIO(func() {
		f.AppendSparse(64 * units.MiB)
		f.Fsync()
	})
	if n.DiskStats().BytesWritten < 64*units.MiB {
		t.Errorf("RAID media writes = %v", n.DiskStats().BytesWritten)
	}
}

func TestNVRAMNodeVariant(t *testing.T) {
	p := SandyBridgeNVRAM()
	p.OSNoiseSigma = 0
	p.Disk.DeterministicRotation = true
	n := New(p, 1)
	// Idle floor gains the NVRAM tier's 2 W.
	if got := float64(n.SystemPower()); math.Abs(got-106.5) > 0.01 {
		t.Errorf("NVRAM node idle power = %v, want 106.5", got)
	}
	f := n.FS.Create("ck")
	start := n.Now()
	n.WithIO(func() {
		f.AppendSparse(64 * units.MiB)
		f.Fsync()
	})
	fsyncTime := float64(n.Now() - start)
	if fsyncTime > 0.3 {
		t.Errorf("NVRAM-buffered fsync took %v, want well under disk time", fsyncTime)
	}
	n.WaitDiskIdle() // background drain to the spinning disk
	if n.DiskStats().BytesWritten < 64*units.MiB {
		t.Errorf("drain incomplete: %v on backing disk", n.DiskStats().BytesWritten)
	}
}

func TestPowerCappedNodeStretchesCompute(t *testing.T) {
	base := quiet(1)
	capped := func() *Node {
		p := SandyBridge()
		p.OSNoiseSigma = 0
		p.Disk.DeterministicRotation = true
		p.PackagePowerCap = 60
		return New(p, 1)
	}()

	work := uint64(base.Profile.CellUpdateRate * 10)
	t0 := base.Now()
	base.Compute(work)
	baseTime := float64(base.Now() - t0)

	t0 = capped.Now()
	capped.Compute(work)
	cappedTime := float64(capped.Now() - t0)

	if cappedTime <= baseTime {
		t.Errorf("capped compute %v not slower than uncapped %v", cappedTime, baseTime)
	}
	// Peak package power respected the cap during the busy window.
	if pk := float64(capped.Bus.Domain("package").Peak()); pk > 60.3 { // +0.2 monitor-free
		t.Errorf("package peak under cap = %v, want <= 60", pk)
	}
}

func TestWaitDiskIdle(t *testing.T) {
	n := quiet(5)
	f := n.FS.Create("bg")
	n.WithIO(func() {
		f.AppendSparse(n.Profile.Cache.BackgroundDirty + 32*units.MiB)
	})
	n.WaitDiskIdle()
	if !n.Device.Idle() {
		t.Error("disk not idle after WaitDiskIdle")
	}
}

// TestRAIDSpanInArrayOffsets: the advisor reads a device's touched
// span from DiskStats, so a RAID-0 array must report it in array
// offsets, as a single disk does. The same files written and fsynced
// on an HDD node and a RAID-0 ×4 node give the same span.
func TestRAIDSpanInArrayOffsets(t *testing.T) {
	for _, size := range []units.Bytes{256 * units.KiB, 64 * units.MiB} {
		var spans [2][2]units.Bytes
		for i, p := range []Profile{SandyBridge(), SandyBridgeRAID(4)} {
			n := New(p, 1)
			f := n.FS.Create("x")
			n.WithIO(func() {
				f.AppendSparse(size)
				f.Fsync()
			})
			st := n.DiskStats()
			spans[i] = [2]units.Bytes{st.MinOffset, st.MaxOffset}
		}
		if spans[0] != spans[1] {
			t.Errorf("%v file: HDD span [%d, %d), RAID-0 ×4 span [%d, %d)", size, spans[0][0], spans[0][1], spans[1][0], spans[1][1])
		}
	}
}

// TestReadMissAllocatesNothing pins the storage request path on a
// whole node (page cache, HDD and its power domain, the OS-noise
// ticker): a warm 16 KiB sparse read that misses the cache, seeks and
// waits for the disk allocates nothing. The reads walk the file
// backwards, so each misses and merges into one cached range.
func TestReadMissAllocatesNothing(t *testing.T) {
	n := New(SandyBridge(), 1)
	const block = 16 * units.KiB
	b := 256
	f := n.FS.Create("data")
	n.WithIO(func() {
		f.AppendSparse(units.Bytes(b) * block)
		f.Fsync()
		n.FS.DropCaches()
	})
	n.WaitDiskIdle()
	before := n.Cache.Stats()
	if allocs := testing.AllocsPerRun(100, func() {
		b--
		if err := f.ReadSparseAt(units.Bytes(b)*block, block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadSparseAt miss: %v allocs/op, want 0", allocs)
	}
	after := n.Cache.Stats()
	if miss := after.ReadMisses - before.ReadMisses; miss != 101*block || after.ReadHits != before.ReadHits {
		t.Errorf("reads missed %d bytes and hit %d, want %d and 0", miss, after.ReadHits-before.ReadHits, 101*block)
	}
}
