package core

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/netio"
	"repro/internal/node"
)

func testCluster(seed uint64) *Cluster {
	return NewCluster(node.SandyBridge(), netio.TenGigE(), seed)
}

func TestInTransitRendersEveryEvent(t *testing.T) {
	cs := CaseStudies()[0]
	r := RunOnCluster(testCluster(21), InTransit, cs, testConfig())
	if r.Frames != 50 {
		t.Errorf("frames = %d, want 50", r.Frames)
	}
	if r.BytesSent < 50*TotalSizeForGrid(testConfig()) {
		t.Errorf("BytesSent = %v, too low", r.BytesSent)
	}
	if r.StagingBusy <= 0 {
		t.Error("staging node never rendered")
	}
}

func TestInTransitFramesMatchInSitu(t *testing.T) {
	cs := CaseStudies()[1]
	it := RunOnCluster(testCluster(22), InTransit, cs, testConfig())
	ins := Run(testNode(23), InSitu, cs, testConfig())
	if it.FrameChecksum != ins.FrameChecksum {
		t.Error("in-transit and in-situ rendered different frames")
	}
}

func TestInTransitFasterThanInSituButCostsSecondNode(t *testing.T) {
	cs := CaseStudies()[0]
	it := RunOnCluster(testCluster(24), InTransit, cs, testConfig())
	ins := Run(testNode(25), InSitu, cs, testConfig())
	post := Run(testNode(26), PostProcessing, cs, testConfig())

	// The simulation node offloads rendering and only pays the network
	// transfer, so the in-transit makespan beats in-situ.
	if it.ExecTime >= ins.ExecTime {
		t.Errorf("in-transit makespan %v not below in-situ %v", it.ExecTime, ins.ExecTime)
	}
	// And far beats post-processing.
	if float64(it.ExecTime) > 0.6*float64(post.ExecTime) {
		t.Errorf("in-transit %v not well below post-processing %v", it.ExecTime, post.ExecTime)
	}
	// But the second node's static floor makes the *cluster* energy
	// worse than in-situ — the deployment caveat Gamell et al. observe.
	if it.Energy <= ins.Energy {
		t.Errorf("two-node total %v unexpectedly below one-node in-situ %v", it.Energy, ins.Energy)
	}
	// Charged to the simulation node alone, in-transit is the greenest.
	if it.SimEnergy >= ins.Energy {
		t.Errorf("sim-node energy %v not below in-situ %v", it.SimEnergy, ins.Energy)
	}
}

func TestInTransitEnergyComponentsSum(t *testing.T) {
	cs := CaseStudies()[2]
	r := RunOnCluster(testCluster(27), InTransit, cs, testConfig())
	if r.Energy != r.SimEnergy+r.StagingEnergy {
		t.Error("energy components do not sum")
	}
	if r.SimEnergy <= 0 || r.StagingEnergy <= 0 {
		t.Error("non-positive node energies")
	}
}

func TestInTransitStagingOverlapsSimulation(t *testing.T) {
	// Staging renders while the simulation continues: the makespan must
	// be much closer to the simulation time than to the serialized sum.
	cs := CaseStudies()[0]
	cfg := testConfig()
	r := RunOnCluster(testCluster(28), InTransit, cs, cfg)
	simOnly := 2.18 * 50 // calibrated seconds of pure simulation
	serialized := simOnly + float64(r.StagingBusy)
	overlapSlack := float64(r.ExecTime) - simOnly
	if overlapSlack > 0.5*(serialized-simOnly) {
		t.Errorf("makespan %v suggests little overlap (sim %v, staging busy %v)",
			r.ExecTime, simOnly, r.StagingBusy)
	}
}

func TestClusterDeterminism(t *testing.T) {
	cs := CaseStudy{Name: "tiny", Iterations: 3, IOInterval: 1}
	a := RunOnCluster(testCluster(31), InTransit, cs, testConfig())
	b := RunOnCluster(testCluster(31), InTransit, cs, testConfig())
	if a.ExecTime != b.ExecTime || a.Energy != b.Energy {
		t.Error("same-seed clusters diverged")
	}
}

// clusterReport runs p on a fresh two-node cluster and returns the
// result with its -format json report.
func clusterReport(t *testing.T, p Pipeline, cs CaseStudy, faults string) (*RunResult, []byte) {
	t.Helper()
	cfg := testConfig()
	fc, err := fault.ParseSpec(faults)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fc
	r := RunOnCluster(testCluster(41), p, cs, cfg)
	var buf bytes.Buffer
	if err := r.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestClusterRunsInjectFaults: a fault spec reaches both nodes of a
// cluster run, and recovery is charged as on a single node.
func TestClusterRunsInjectFaults(t *testing.T) {
	cs := CaseStudies()[2]
	_, clean := clusterReport(t, Hybrid, cs, "")
	r, faulted := clusterReport(t, Hybrid, cs, "writeerr=0.5,bitrot=0.5,seed=3")
	if r.Faults.WriteErrors == 0 || r.Recovery.Total() == 0 {
		t.Errorf("hybrid under write errors: faults %+v, recovery %+v", r.Faults, r.Recovery)
	}
	if bytes.Equal(clean, faulted) {
		t.Error("faulted hybrid report is identical to the fault-free one")
	}
	// In-transit does its only disk I/O on the staging node.
	r, _ = clusterReport(t, InTransit, cs, "latency=0.5,spike=2,seed=3")
	if r.Faults.LatencySpikes == 0 {
		t.Errorf("in-transit under latency spikes: faults %+v", r.Faults)
	}
}

// TestClusterRunsAreInstrumented: cluster runs meter the simulation
// node and count both nodes' disk traffic, as single-node runs do.
func TestClusterRunsAreInstrumented(t *testing.T) {
	cs := CaseStudy{Name: "tiny", Iterations: 4, IOInterval: 1}
	for _, p := range []Pipeline{InTransit, Hybrid} {
		r, _ := clusterReport(t, p, cs, "")
		if r.Profile == nil || r.MeasuredEnergy <= 0 || r.AvgPower <= 0 || r.PeakPower < r.AvgPower {
			t.Errorf("%s: profile %v, measured %v, avg %v, peak %v",
				p, r.Profile != nil, r.MeasuredEnergy, r.AvgPower, r.PeakPower)
		}
		if r.BytesWritten <= 0 {
			t.Errorf("%s: BytesWritten = %v", p, r.BytesWritten)
		}
	}
}

// TestRunNeedsMatchingPlatform: a pipeline runs only on a platform
// with the nodes it needs.
func TestRunNeedsMatchingPlatform(t *testing.T) {
	cs := CaseStudy{Name: "tiny", Iterations: 1, IOInterval: 1}
	for name, run := range map[string]func(){
		"Run with in-transit":          func() { Run(testNode(1), InTransit, cs, testConfig()) },
		"one-node cluster with hybrid": func() { RunOnCluster(NewClusterFor(node.SandyBridge(), InSitu, 1), Hybrid, cs, testConfig()) },
		"two-node cluster with post":   func() { RunOnCluster(testCluster(1), PostProcessing, cs, testConfig()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			run()
		}()
	}
}
