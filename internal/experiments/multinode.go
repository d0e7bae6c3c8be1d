package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netio"
	"repro/internal/node"
)

// InTransit runs the Future Work multi-node study: the in-transit
// pipeline (simulation node + network + staging node) against the
// paper's two single-node pipelines on case study 1.
func (s *Suite) InTransit() Report {
	cs := core.CaseStudies()[0]
	post := s.run(core.PostProcessing, cs)
	ins := s.run(core.InSitu, cs)

	cluster := core.NewCluster(node.SandyBridge(), netio.TenGigE(), s.seedFor("intransit/cluster"))
	it := core.RunOnCluster(cluster, core.InTransit, cs, s.Config)

	var b strings.Builder
	rows := [][]string{
		{"post-processing (1 node)", secs(post.ExecTime), kjoule(post.Energy), kjoule(post.Energy)},
		{"in-situ (1 node)", secs(ins.ExecTime), kjoule(ins.Energy), kjoule(ins.Energy)},
		{"in-transit (sim node)", secs(it.ExecTime), kjoule(it.SimEnergy), kjoule(it.Energy)},
	}
	fmt.Fprintf(&b, "%s\n", table(
		[]string{"Pipeline", "Makespan", "Energy (sim node)", "Energy (cluster)"}, rows))
	fmt.Fprintf(&b, "Network: %s over 10 GbE in %d transfers; staging rendered for %s\n",
		it.BytesSent, it.Frames, secs(it.StagingBusy))
	fmt.Fprintf(&b, "(%.0f%% of the staging node's time was idle floor).\n\n",
		(1-float64(it.StagingBusy)/float64(it.ExecTime))*100)
	fmt.Fprintf(&b, "In-transit offloads rendering, so the simulation node finishes fastest and\n")
	fmt.Fprintf(&b, "spends the least energy — but a dedicated staging node's static power makes\n")
	fmt.Fprintf(&b, "the cluster total exceed single-node in-situ unless staging is shared across\n")
	fmt.Fprintf(&b, "jobs (consistent with Gamell et al. [24] and Bennett et al. [10]).\n")
	return Report{
		ID:    "intransit",
		Title: "Future Work: multi-node in-transit pipeline vs. the paper's two",
		Body:  b.String(),
	}
}
