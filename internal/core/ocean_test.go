package core

import (
	"testing"

	"repro/internal/ocean"
	"repro/internal/viz"
)

// oceanConfig plugs the shallow-water proxy into the pipelines.
func oceanConfig() AppConfig {
	cfg := testConfig()
	cfg.NewSimulator = func() Simulator {
		p := ocean.DefaultParams()
		return ocean.NewSolver(p)
	}
	// Height anomalies are signed: use the diverging map, auto-scaled.
	cfg.Render = viz.RenderOptions{
		Width: 512, Height: 512,
		Colormap: viz.CoolWarm(),
		Isolines: []float64{0},
	}
	return cfg
}

func TestOceanRunsThroughBothPipelines(t *testing.T) {
	cs := CaseStudy{Name: "ocean", Iterations: 10, IOInterval: 1}
	post := Run(testNode(41), PostProcessing, cs, oceanConfig())
	ins := Run(testNode(42), InSitu, cs, oceanConfig())
	c := Compare(post, ins)
	if post.FrameChecksum != ins.FrameChecksum {
		t.Error("ocean pipelines rendered different frames")
	}
	if s := c.EnergySavingsPct(); s <= 10 {
		t.Errorf("ocean in-situ savings = %.1f%%, want the same qualitative win", s)
	}
	if post.Frames != 10 {
		t.Errorf("frames = %d", post.Frames)
	}
}

func TestOceanFramesDifferFromHeatFrames(t *testing.T) {
	// Sanity: the second proxy produces genuinely different imagery.
	cs := CaseStudy{Name: "x", Iterations: 2, IOInterval: 1}
	h := Run(testNode(43), InSitu, cs, testConfig())
	o := Run(testNode(44), InSitu, cs, oceanConfig())
	if h.FrameChecksum == o.FrameChecksum {
		t.Error("heat and ocean produced identical frames")
	}
}

func TestOceanInTransit(t *testing.T) {
	cs := CaseStudy{Name: "ocean-it", Iterations: 5, IOInterval: 1}
	r := RunOnCluster(testCluster(45), InTransit, cs, oceanConfig())
	if r.Frames != 5 || r.StagingBusy <= 0 {
		t.Errorf("ocean in-transit: frames=%d busy=%v", r.Frames, r.StagingBusy)
	}
}
