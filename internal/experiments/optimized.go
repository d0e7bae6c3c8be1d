package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/node"
)

// Optimized quantifies the paper's closing argument — that an
// "alternative set of optimization techniques" can make the
// post-processing pipeline nearly as green as in-situ without giving up
// exploratory analysis. Since §V-C shows 91 % of the in-situ savings
// are *static* (serialized idle time), the techniques that matter are
// the ones that remove serialized time or idle power:
//
//   - asynchronous checkpointing: buffer writes, overlap the drain with
//     the following simulation iterations;
//   - disk spindown: put the platters in standby during long compute
//     phases.
func (s *Suite) Optimized() Report {
	cs := core.CaseStudies()[0]
	base := s.comparison(0)

	variants := []struct {
		name string
		prof func() node.Profile
		cfg  func(core.AppConfig) core.AppConfig
	}{
		{
			"post + async checkpoints",
			node.SandyBridge,
			func(c core.AppConfig) core.AppConfig { c.AsyncCheckpoint = true; return c },
		},
		{
			"post + async + disk spindown",
			func() node.Profile {
				p := node.SandyBridge()
				p.Disk.StandbyAfter = 4
				p.Disk.StandbyPower = 0.8
				p.Disk.SpinupTime = 6
				return p
			},
			func(c core.AppConfig) core.AppConfig { c.AsyncCheckpoint = true; return c },
		},
	}

	rows := [][]string{
		{"post-processing (vanilla)", secs(base.Post.ExecTime), kjoule(base.Post.Energy), "-"},
	}
	for _, v := range variants {
		n := node.New(v.prof(), s.seedFor("optimized/"+v.name))
		r := core.Run(n, core.PostProcessing, cs, v.cfg(s.Config))
		saved := float64(base.Post.Energy-r.Energy) / float64(base.Post.Energy) * 100
		rows = append(rows, []string{v.name, secs(r.ExecTime), kjoule(r.Energy), pct(saved)})
	}
	rows = append(rows, []string{
		"in-situ (reference)", secs(base.InSitu.ExecTime), kjoule(base.InSitu.Energy),
		pct(base.EnergySavingsPct()),
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", table(
		[]string{"Variant", "Time", "Energy", "Saved vs vanilla post"}, rows))
	fmt.Fprintf(&b, "Because the savings are mostly static time (Sec. V-C), overlapping the\n")
	fmt.Fprintf(&b, "checkpoint drain with computation recovers a large share of the in-situ\n")
	fmt.Fprintf(&b, "advantage while keeping every checkpoint on disk for exploration.\n")
	fmt.Fprintf(&b, "Disk spindown, by contrast, is a negative result at this I/O intensity:\n")
	fmt.Fprintf(&b, "with the drain overlapped the disk never idles past the standby threshold,\n")
	fmt.Fprintf(&b, "so removing its ~4 W idle draw needs compute-dominated phases (case study 3)\n")
	fmt.Fprintf(&b, "or a deeper standby policy to matter.\n")
	return Report{
		ID:    "optimized",
		Title: "Conclusion: alternative optimizations for the post-processing pipeline",
		Body:  b.String(),
	}
}
