package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/pfs"
)

// Reliability measures what storage faults cost each pipeline (ours,
// in the robustness direction of SIM-SITU): case study 1 is rerun with
// the deterministic fault injector at increasing rates — bit-rot on
// delivered bytes, transient read/write errors, disk latency spikes —
// and the bounded-retry/re-simulation recovery machinery absorbs every
// fault while its time and energy land on the ledgers. The fault-free
// row reuses the cached clean runs: with injection off, the pipelines
// are byte-identical to a build without the fault hooks.
func (s *Suite) Reliability() Report {
	cs := core.CaseStudies()[0]
	type point struct {
		label string
		rate  float64
	}
	points := []point{
		{"none", 0},
		{"0.5%", 0.005},
		{"5%", 0.05},
	}

	var rows [][]string
	var cleanPost, cleanIns *core.RunResult
	for _, pt := range points {
		for _, p := range []core.Pipeline{core.PostProcessing, core.InSitu} {
			var res *core.RunResult
			if pt.rate == 0 {
				res = s.run(p, cs)
			} else {
				key := fmt.Sprintf("reliability/%s/%s", p, pt.label)
				cfg := s.Config
				cfg.Faults = &fault.Config{
					Seed:     s.seedFor(key + "/faults"),
					BitRot:   pt.rate,
					ReadErr:  pt.rate,
					WriteErr: pt.rate / 2,
					Latency:  pt.rate * 2,
				}
				res = core.Run(s.nodeFor(key), p, cs, cfg)
			}
			clean := &cleanPost
			if p == core.InSitu {
				clean = &cleanIns
			}
			if pt.rate == 0 {
				*clean = res
			}
			overhead := "—"
			if *clean != nil && (*clean).Energy > 0 && pt.rate > 0 {
				overhead = pct((float64(res.Energy)/float64((*clean).Energy) - 1) * 100)
			}
			rec := res.Recovery
			rows = append(rows, []string{
				p.String(), pt.label,
				secs(res.ExecTime), kjoule(res.Energy), overhead,
				fmt.Sprintf("%d", res.Faults.Total()),
				fmt.Sprintf("%d", rec.WriteRetries+rec.ReadRetries),
				fmt.Sprintf("%d", rec.Resimulations),
			})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", table(
		[]string{"Pipeline", "Fault rate", "Time", "Energy", "Overhead", "Faults", "Retries", "Resims"}, rows))

	// Server drops on the parallel filesystem: the RPC-level fault class
	// the local stack cannot express.
	client := node.New(node.SandyBridge(), s.seedFor("reliability/pfs/client"))
	fsys := pfs.New(client, pfs.DefaultParams(), s.seedFor("reliability/pfs/servers"))
	cfg := s.Config
	cfg.Store = pfs.NewStore(fsys)
	cfg.Faults = &fault.Config{Seed: s.seedFor("reliability/pfs/faults"), Drop: 0.05}
	remote := core.Run(client, core.PostProcessing, cs, cfg)
	rec := remote.Recovery
	fmt.Fprintf(&b, "PFS with 5%% server drops: %s, %s client energy — %d drops absorbed by %d retries\n",
		secs(remote.ExecTime), kjoule(remote.Energy), remote.Faults.ServerDrops, rec.WriteRetries+rec.ReadRetries)
	fmt.Fprintf(&b, "(%s stalled in timeouts/backoff), %d checkpoints re-simulated.\n",
		secs(rec.BackoffTime), rec.Resimulations)

	fmt.Fprintf(&b, "\nThe post-processing pipeline pays twice per fault rate: its checkpoints\n")
	fmt.Fprintf(&b, "round-trip through storage, so both the write and the cold read draw fault\n")
	fmt.Fprintf(&b, "decisions, and an unrecoverable checkpoint costs a full re-simulation of the\n")
	fmt.Fprintf(&b, "lost frame. In-situ renders from memory and exposes only its small frame and\n")
	fmt.Fprintf(&b, "provenance writes, so the same fault rates barely move its energy — the\n")
	fmt.Fprintf(&b, "paper's greenness gap widens as storage gets less reliable.\n")
	return Report{
		ID:    "reliability",
		Title: "Reliability: energy overhead of storage faults per pipeline (ours)",
		Body:  b.String(),
	}
}
