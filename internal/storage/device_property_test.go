package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// deviceUnderTest builds each Device implementation over deterministic
// disks for cross-implementation property checks.
func devicesUnderTest(e *sim.Engine, seed uint64) map[string]Device {
	p := SeagateHDD()
	p.DeterministicRotation = true
	rng := xrand.New(seed)
	return map[string]Device{
		"disk": NewDisk(e, p, nil, rng.Split()),
		"raid": NewStripedDisk(e, 4, p, 256*units.KiB, nil, rng.Split()),
		"bb":   NewBurstBuffer(e, NewDisk(e, p, nil, rng.Split()), nil),
	}
}

// Property: for every Device implementation, completion times are
// never before now, and after advancing past the last completion plus
// drain slack the device is idle. The plain disk additionally
// guarantees FCFS (non-decreasing completions); RAID and the burst
// buffer schedule across independent resources, so a later request on
// an idle member/tier may legitimately finish earlier.
func TestDeviceContractProperty(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		for name, dev := range devicesUnderTest(sim.NewEngine(), seed) {
			_ = name
			e := sim.NewEngine()
			// Rebuild on a fresh engine per device so clocks don't mix.
			devs := devicesUnderTest(e, seed)
			dev = devs[name]
			rng := xrand.New(seed + 99)
			var last sim.Time
			for _, raw := range ops {
				op := OpRead
				if raw%2 == 1 {
					op = OpWrite
				}
				off := units.Bytes(rng.Int64n(int64(4 * units.GiB)))
				n := units.Bytes(rng.Int64n(int64(2*units.MiB))) + 1
				end := dev.Submit(op, off, n, nil)
				if end < e.Now() {
					t.Logf("%s: completion %v before now %v", name, end, e.Now())
					return false
				}
				if name == "disk" && end < last {
					t.Logf("%s: completion %v before previous %v (FCFS broken)", name, end, last)
					return false
				}
				if end > last {
					last = end
				}
			}
			e.AdvanceTo(last)
			e.Advance(30) // burst-buffer drain slack
			if !dev.Idle() {
				t.Logf("%s: not idle after drain", name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: done callbacks fire exactly once per request, at the
// returned completion time, for every Device implementation.
func TestDeviceDoneCallbackProperty(t *testing.T) {
	for name, _ := range devicesUnderTest(sim.NewEngine(), 1) {
		e := sim.NewEngine()
		dev := devicesUnderTest(e, 7)[name]
		rng := xrand.New(8)
		type rec struct {
			want sim.Time
			got  sim.Time
			hits int
		}
		var recs []*rec
		for i := 0; i < 50; i++ {
			r := &rec{got: -1}
			recs = append(recs, r)
			off := units.Bytes(rng.Int64n(int64(units.GiB)))
			n := units.Bytes(rng.Int64n(int64(units.MiB))) + 1
			r.want = dev.Submit(OpWrite, off, n, func() {
				r.got = e.Now()
				r.hits++
			})
		}
		e.Advance(3600)
		for i, r := range recs {
			if r.hits != 1 {
				t.Fatalf("%s: request %d done fired %d times", name, i, r.hits)
			}
			if r.got != r.want {
				t.Fatalf("%s: request %d done at %v, want %v", name, i, r.got, r.want)
			}
		}
	}
}
