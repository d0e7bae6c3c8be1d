package core

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/units"
)

// faultyConfig arms the injector at rates high enough that a case-1
// post-processing run is guaranteed to absorb faults.
func faultyConfig(seed uint64) AppConfig {
	cfg := testConfig()
	cfg.Faults = &fault.Config{Seed: seed, BitRot: 0.2, ReadErr: 0.2, WriteErr: 0.05, Latency: 0.1}
	return cfg
}

// TestRecoveryPreservesFrames is the headline recoverability property:
// under bit-rot and transient errors the post-processing pipeline still
// renders exactly the frames of a fault-free run — every corrupted or
// failed read is retried or the frame re-simulated — while the recovery
// work lands on the time and energy ledgers.
func TestRecoveryPreservesFrames(t *testing.T) {
	cs := CaseStudies()[0]
	clean := Run(testNode(1), PostProcessing, cs, testConfig())
	faulty := Run(testNode(1), PostProcessing, cs, faultyConfig(42))

	if faulty.FrameChecksum != clean.FrameChecksum {
		t.Errorf("faulty run rendered different frames: %x vs %x",
			faulty.FrameChecksum, clean.FrameChecksum)
	}
	if faulty.Faults.Total() == 0 {
		t.Fatal("fault injector armed but no faults recorded")
	}
	if faulty.Recovery.Total() == 0 {
		t.Error("faults recorded but no recovery performed")
	}
	if faulty.Recovery.ReadRetries > 0 && faulty.Recovery.BackoffTime <= 0 {
		t.Error("retries performed without charging backoff time")
	}
	if faulty.ExecTime <= clean.ExecTime {
		t.Errorf("recovery cost no time: faulty %v <= clean %v", faulty.ExecTime, clean.ExecTime)
	}
	if faulty.Energy <= clean.Energy {
		t.Errorf("recovery cost no energy: faulty %v <= clean %v", faulty.Energy, clean.Energy)
	}
}

// TestFaultScheduleDeterministic: equal (node seed, fault config) must
// reproduce the identical fault schedule and recovery, bit for bit.
func TestFaultScheduleDeterministic(t *testing.T) {
	cs := CaseStudies()[0]
	a := Run(testNode(1), PostProcessing, cs, faultyConfig(42))
	b := Run(testNode(1), PostProcessing, cs, faultyConfig(42))
	if a.Faults != b.Faults {
		t.Errorf("fault stats differ: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Recovery != b.Recovery {
		t.Errorf("recovery stats differ: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if a.ExecTime != b.ExecTime || a.Energy != b.Energy || a.FrameChecksum != b.FrameChecksum {
		t.Errorf("run results differ: time %v/%v energy %v/%v checksum %x/%x",
			a.ExecTime, b.ExecTime, a.Energy, b.Energy, a.FrameChecksum, b.FrameChecksum)
	}
}

// TestUnrecoverableWritesResimulate: with every write failing, each
// checkpoint is lost and each visualization frame must come from a
// cold re-simulation — and still match the fault-free frames.
func TestUnrecoverableWritesResimulate(t *testing.T) {
	cs := CaseStudies()[2] // I/O every 8th iteration: few, cheap re-simulations
	clean := Run(testNode(3), PostProcessing, cs, testConfig())

	cfg := testConfig()
	cfg.Faults = &fault.Config{Seed: 7, WriteErr: 1}
	broken := Run(testNode(3), PostProcessing, cs, cfg)

	if broken.Recovery.LostWrites == 0 {
		t.Fatal("certain write errors lost no writes")
	}
	if broken.Recovery.Resimulations == 0 {
		t.Fatal("lost checkpoints triggered no re-simulations")
	}
	if broken.FrameChecksum != clean.FrameChecksum {
		t.Errorf("re-simulated frames differ from clean frames: %x vs %x",
			broken.FrameChecksum, clean.FrameChecksum)
	}
	if d, ok := broken.StageTime[StageRecovery]; !ok || d <= 0 {
		t.Errorf("recovery stage time missing: %v (present %v)", d, ok)
	}
}

// TestDisabledFaultsAreFree: a zero-rate fault config and a nil one
// must produce byte-identical reports on every pipeline — the injection
// hooks may not perturb timing, energy, or output when disabled.
func TestDisabledFaultsAreFree(t *testing.T) {
	cs := CaseStudies()[2]
	report := func(p Pipeline, faults *fault.Config) (*RunResult, []byte) {
		cfg := testConfig()
		cfg.Faults = faults
		r := RunOnCluster(NewClusterFor(node.SandyBridge(), p, 5), p, cs, cfg)
		var buf bytes.Buffer
		if err := r.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	for _, p := range Pipelines() {
		_, a := report(p, nil)
		b, zero := report(p, &fault.Config{})
		if !bytes.Equal(a, zero) {
			t.Errorf("%s: zero-rate faults changed the report:\n%s\nvs\n%s", p, a, zero)
		}
		if b.Faults.Total() != 0 || b.Recovery.Total() != 0 {
			t.Errorf("%s: disabled run reported activity: faults %+v recovery %+v", p, b.Faults, b.Recovery)
		}
	}
}

// TestLocalStoreReadErrorReturnsZeroValues pins the contract callers
// rely on: a failed ReadCheckpoint hands back zero values alongside the
// error, never a partially-decoded grid or header fields.
func TestLocalStoreReadErrorReturnsZeroValues(t *testing.T) {
	n := testNode(9)
	cfg := testConfig()
	store := localStore{n: n, enc: &checkpoint.Encoder{}}

	g := newSimulator(cfg).Field()
	if err := store.WriteCheckpoint("ck", g, 10, 1.5, cfg.CheckpointPayload); err != nil {
		t.Fatal(err)
	}

	n.FS.SetFaults(fault.New(fault.Config{Seed: 1, ReadErr: 1}))
	got, step, simTime, err := store.ReadCheckpoint("ck")
	if err == nil {
		t.Fatal("read with certain errors succeeded")
	}
	if got != nil || step != 0 || simTime != 0 {
		t.Errorf("error path leaked values: grid %v, step %d, time %v", got, step, simTime)
	}

	n.FS.SetFaults(nil)
	got, step, simTime, err = store.ReadCheckpoint("ck")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || step != 10 || simTime != 1.5 {
		t.Errorf("clean re-read = grid %v, step %d, time %v; want original values", got, step, simTime)
	}
}

// TestInstallFaultsReachesEveryDevice installs an always-spiking
// latency injector on a node of each device platform, writes and
// fsyncs a file and waits for the device to go idle: one spike per
// media request shows the injector reached all the media under the
// filesystem, every RAID member and the disk behind the NVRAM tier
// included.
func TestInstallFaultsReachesEveryDevice(t *testing.T) {
	for _, dev := range DeviceFlags() {
		p, err := PlatformByFlag(dev)
		if err != nil {
			t.Fatal(err)
		}
		n := node.New(p, 1)
		inj := fault.New(fault.Config{Seed: 1, Latency: 1})
		n.InstallFaults(inj)
		f := n.FS.Create("ckpt")
		n.WithIO(func() {
			f.AppendSparse(16 * units.MiB)
			f.Fsync()
		})
		n.WaitDiskIdle()
		n.StopNoise()
		st := n.DiskStats()
		if got, want := inj.Stats().LatencySpikes, st.Reads+st.Writes; got == 0 || got != want {
			t.Errorf("%s: the injector counted %d latency spikes over %d media requests, want one each", dev, got, want)
		}
	}
}
