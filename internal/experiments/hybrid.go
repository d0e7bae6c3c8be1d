package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netio"
	"repro/internal/node"
)

// Hybrid runs the fourth pipeline, whose program composes the in-situ
// visualization event with the in-transit link: in-situ rendering on
// the simulation node plus asynchronous in-transit checkpoint offload
// to a staging node (Catalyst-ADIOS2 style), against the paper's two
// single-node pipelines on case study 1.
func (s *Suite) Hybrid() Report {
	cs := core.CaseStudies()[0]
	post := s.run(core.PostProcessing, cs)
	ins := s.run(core.InSitu, cs)

	cluster := core.NewCluster(node.SandyBridge(), netio.TenGigE(), s.seedFor("hybrid/cluster"))
	hy := core.RunOnCluster(cluster, core.Hybrid, cs, s.Config)

	var b strings.Builder
	rows := [][]string{
		{"post-processing (1 node)", secs(post.ExecTime), kjoule(post.Energy), kjoule(post.Energy)},
		{"in-situ (1 node)", secs(ins.ExecTime), kjoule(ins.Energy), kjoule(ins.Energy)},
		{"hybrid (sim node)", secs(hy.ExecTime), kjoule(hy.SimEnergy), kjoule(hy.Energy)},
	}
	fmt.Fprintf(&b, "%s\n", table(
		[]string{"Pipeline", "Makespan", "Energy (sim node)", "Energy (cluster)"}, rows))
	fmt.Fprintf(&b, "Offload: %s over 10 GbE in %d transfers; frames identical to in-situ: %v\n",
		hy.BytesSent, hy.Frames, hy.FrameChecksum == ins.FrameChecksum)
	fmt.Fprintf(&b, "Sim-node energy sits between in-situ (%s) and post-processing (%s):\n",
		kjoule(ins.Energy), kjoule(post.Energy))
	fmt.Fprintf(&b, "the node pays the in-situ render plus the serialized network sends, but\n")
	fmt.Fprintf(&b, "never the local %s checkpoint round trip — the staging disk absorbs the\n",
		s.Config.CheckpointPayload)
	fmt.Fprintf(&b, "writes asynchronously, restoring restart data that pure in-situ discards.\n")
	return Report{
		ID:    "hybrid",
		Title: "Hybrid in-situ + in-transit offload pipeline (stage-graph composition)",
		Body:  b.String(),
	}
}
