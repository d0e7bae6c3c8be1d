package netio

import (
	"math"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/units"
)

func pair(t *testing.T) (*sim.Engine, *node.Node, *node.Node, *Link) {
	t.Helper()
	e := sim.NewEngine()
	p := node.SandyBridge()
	p.OSNoiseSigma = 0
	p.Disk.DeterministicRotation = true
	a := node.NewOnEngine(e, p, 1)
	b := node.NewOnEngine(e, p, 2)
	return e, a, b, Connect(a, b, TenGigE())
}

func TestTransferTime(t *testing.T) {
	_, _, _, l := pair(t)
	got := float64(l.TransferTime(1100 * units.MiB))
	want := 50e-6 + float64(1100*units.MiB)/1.1e9
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
}

func TestSendCompletesAndCounts(t *testing.T) {
	e, _, _, l := pair(t)
	doneAt := sim.Time(-1)
	end := l.Send(110*units.MiB, func() { doneAt = e.Now() })
	e.AdvanceTo(end)
	if doneAt != end {
		t.Errorf("done at %v, want %v", doneAt, end)
	}
	st := l.Stats()
	if st.Messages != 1 || st.BytesSent != 110*units.MiB {
		t.Errorf("stats = %+v", st)
	}
}

func TestSendsSerializeFCFS(t *testing.T) {
	e, _, _, l := pair(t)
	end1 := l.Send(110*units.MiB, nil)
	end2 := l.Send(110*units.MiB, nil)
	if end2 <= end1 {
		t.Errorf("second transfer finished at %v, not after first at %v", end2, end1)
	}
	per := float64(l.TransferTime(110 * units.MiB))
	if math.Abs(float64(end2)-2*per) > 1e-9 {
		t.Errorf("two transfers took %v, want %v", end2, 2*per)
	}
	e.AdvanceTo(end2)
	if !l.Idle() {
		t.Error("link not idle after both transfers")
	}
}

func TestNICPowerRaisedOnBothEnds(t *testing.T) {
	e, a, b, l := pair(t)
	base := a.SystemPower() + b.SystemPower()
	end := l.Send(units.GiB, nil)
	e.Advance(0.1)
	during := a.SystemPower() + b.SystemPower()
	wantDelta := 2 * (l.Params().NICActive - l.Params().NICIdle)
	if math.Abs(float64(during-base-wantDelta)) > 0.01 {
		t.Errorf("power delta during transfer = %v, want %v", during-base, wantDelta)
	}
	e.AdvanceTo(end + 0.001)
	after := a.SystemPower() + b.SystemPower()
	if math.Abs(float64(after-base)) > 0.01 {
		t.Errorf("power after transfer = %v, want baseline %v", after, base)
	}
}

func TestNICIdleAddsToSystemFloor(t *testing.T) {
	_, a, _, l := pair(t)
	// The nic domain adds its idle draw to the bus.
	want := float64(node.IdlePower(a.Profile) + l.Params().NICIdle)
	if got := float64(a.SystemPower()); math.Abs(got-want) > 0.01 {
		t.Errorf("system power with NIC = %v, want %v", got, want)
	}
}

func TestConnectRequiresSharedEngine(t *testing.T) {
	p := node.SandyBridge()
	a := node.New(p, 1)
	b := node.New(p, 2)
	defer func() {
		if recover() == nil {
			t.Error("Connect across engines did not panic")
		}
	}()
	Connect(a, b, TenGigE())
}

func TestSendValidation(t *testing.T) {
	_, _, _, l := pair(t)
	defer func() {
		if recover() == nil {
			t.Error("negative send did not panic")
		}
	}()
	l.Send(-1, nil)
}
