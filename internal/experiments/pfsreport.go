package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/pfs"
)

// PFS runs the final Future Work item: case study 1's post-processing
// pipeline with its checkpoints on a 4-server striped parallel
// filesystem instead of the local disk, against the single-node
// pipelines. The client gets much faster; the cluster bill grows by
// four server floors.
func (s *Suite) PFS() Report {
	cs := core.CaseStudies()[0]
	localPost := s.run(core.PostProcessing, cs)
	ins := s.run(core.InSitu, cs)

	client := node.New(node.SandyBridge(), s.seedFor("pfs/client"))
	fsys := pfs.New(client, pfs.DefaultParams(), s.seedFor("pfs/servers"))
	cfg := s.Config
	cfg.Store = pfs.NewStore(fsys)
	remote := core.Run(client, core.PostProcessing, cs, cfg)
	serversE := fsys.ServersEnergy()

	rows := [][]string{
		{"post-processing, local disk", secs(localPost.ExecTime), kjoule(localPost.Energy), kjoule(localPost.Energy)},
		{"post-processing, 4-server PFS", secs(remote.ExecTime), kjoule(remote.Energy), kjoule(remote.Energy + serversE)},
		{"in-situ, local", secs(ins.ExecTime), kjoule(ins.Energy), kjoule(ins.Energy)},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", table(
		[]string{"Pipeline / storage", "Client time", "Client energy", "Total energy"}, rows))
	st := fsys.Stats()
	fmt.Fprintf(&b, "PFS moved %s written / %s read over the client uplink, striped across 4 servers.\n",
		st.BytesWritten, st.BytesRead)
	fmt.Fprintf(&b, "The parallel filesystem removes most of the client's serialized I/O time —\n")
	fmt.Fprintf(&b, "the post-processing pipeline approaches in-situ on the client's meter — but\n")
	fmt.Fprintf(&b, "the four storage servers' static power lands the *facility* bill far above\n")
	fmt.Fprintf(&b, "either single-node pipeline unless the servers are shared across many jobs.\n")
	return Report{
		ID:    "pfs",
		Title: "Future Work: post-processing on a striped parallel filesystem",
		Body:  b.String(),
	}
}
