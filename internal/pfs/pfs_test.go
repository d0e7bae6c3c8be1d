package pfs

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/node"
	"repro/internal/units"
)

// quietClient returns a client with OS noise off and a deterministic
// disk. The servers New builds sample their disks' rotation from the
// seed each test passes, so every test runs one fixed draw.
func quietClient(seed uint64) *node.Node {
	p := node.SandyBridge()
	p.OSNoiseSigma = 0
	p.Disk.DeterministicRotation = true
	return node.New(p, seed)
}

func TestWriteReadRoundTrip(t *testing.T) {
	client := quietClient(1)
	fs := New(client, 10)
	header := []byte("PFSHDR--real bytes that must survive")
	fs.WriteFile("f1", header, 32*units.MiB)
	got, err := fs.ReadFile("f1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, header) {
		t.Errorf("header round trip failed: %q", got)
	}
}

func TestStripesSpreadAcrossServers(t *testing.T) {
	client := quietClient(2)
	fs := New(client, 20)
	fs.WriteFile("f", nil, 16*units.MiB) // 16 stripes over 4 servers
	for i, s := range fs.servers {
		st := s.n.DiskStats()
		if st.BytesWritten != 4*units.MiB {
			t.Errorf("server %d got %v, want 4 MiB", i, st.BytesWritten)
		}
	}
}

func TestParallelWriteBeatsLocalDisk(t *testing.T) {
	// A 188 MiB checkpoint: the local disk streams at 159 MB/s
	// (~1.2 s); the PFS is uplink-bound at 1.1 GB/s with 4 disks
	// absorbing in parallel (~0.3 s).
	client := quietClient(3)
	fs := New(client, 30)
	start := client.Engine.Now()
	fs.WriteFile("ckpt", nil, 188*units.MiB)
	elapsed := float64(client.Engine.Now() - start)
	localTime := float64(188*units.MiB) / 159e6
	if elapsed >= localTime {
		t.Errorf("PFS write took %v, want below local-disk %v", elapsed, localTime)
	}
	if elapsed < float64(188*units.MiB)/1.1e9 {
		t.Errorf("PFS write %v beat the uplink itself — accounting bug", elapsed)
	}
}

func TestServersEnergyAccumulates(t *testing.T) {
	client := quietClient(4)
	fs := New(client, 40)
	client.Engine.Advance(10)
	e := fs.ServersEnergy()
	// Four idle servers at ~104.5 W (+NIC on server 0) for 10 s.
	if float64(e) < 4*104.5*10 || float64(e) > 4*115*10 {
		t.Errorf("servers energy after 10 idle seconds = %v", e)
	}
}

func TestReadUnknownFile(t *testing.T) {
	client := quietClient(5)
	fs := New(client, 50)
	if _, err := fs.ReadFile("nope"); err == nil {
		t.Error("unknown file did not error")
	}
}

func TestDuplicateWritePanics(t *testing.T) {
	client := quietClient(6)
	fs := New(client, 60)
	fs.WriteFile("x", nil, units.MiB)
	defer func() {
		if recover() == nil {
			t.Error("duplicate WriteFile did not panic")
		}
	}()
	fs.WriteFile("x", nil, units.MiB)
}

func TestStoreCheckpointRoundTrip(t *testing.T) {
	client := quietClient(7)
	fs := New(client, 70)
	store := NewStore(fs)

	cfg := core.DefaultAppConfig()
	solver := heat.NewSolver(cfg.Heat)
	solver.Step(4)
	store.WriteCheckpoint("ck-1", solver.Field(), solver.Steps(), solver.Time(), 32*units.MiB)
	store.Barrier()
	g, step, simTime, err := store.ReadCheckpoint("ck-1")
	if err != nil {
		t.Fatal(err)
	}
	if step != solver.Steps() || simTime != solver.Time() {
		t.Errorf("capture metadata = %d/%v, want %d/%v", step, simTime, solver.Steps(), solver.Time())
	}
	for i := range g.Data {
		if g.Data[i] != solver.Field().Data[i] {
			t.Fatalf("field differs at %d", i)
		}
	}
}

func TestPostProcessingOnPFS(t *testing.T) {
	client := quietClient(8)
	fs := New(client, 80)
	cfg := core.DefaultAppConfig()
	cfg.RealSubsteps = 4
	cfg.Store = NewStore(fs)
	cs := core.CaseStudy{Name: "pfs", Iterations: 6, IOInterval: 1}
	res := core.Run(client, core.PostProcessing, cs, cfg)

	local := core.Run(quietClient(9), core.PostProcessing, cs, func() core.AppConfig {
		c := core.DefaultAppConfig()
		c.RealSubsteps = 4
		return c
	}())

	if res.Frames != 6 {
		t.Errorf("frames = %d", res.Frames)
	}
	if res.FrameChecksum != local.FrameChecksum {
		t.Error("PFS-backed pipeline rendered different frames than local")
	}
	// The client finishes faster on the PFS (I/O stages shrink).
	if res.ExecTime >= local.ExecTime {
		t.Errorf("PFS run %v not faster than local %v", res.ExecTime, local.ExecTime)
	}
	// But the cluster (client + 4 servers) consumes more total energy.
	total := res.Energy + fs.ServersEnergy()
	if total <= local.Energy {
		t.Errorf("cluster energy %v not above single-node %v", total, local.Energy)
	}
}
