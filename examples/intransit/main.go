// Intransit runs the Future Work multi-node study: a simulation node
// that ships each visualization event's data over a 10 GbE link to a
// dedicated staging node, which renders concurrently. It contrasts the
// three pipelines' makespan and energy under two accounting views —
// the simulation node alone versus the whole cluster.
package main

import (
	"fmt"

	greenviz "repro"
)

func main() {
	cfg := greenviz.DefaultConfig()
	cfg.RealSubsteps = 8
	cs := greenviz.CaseStudies()[0]

	fmt.Printf("Case study: %s (I/O + render every iteration)\n\n", cs.Name)

	post := greenviz.Run(greenviz.NewNode(greenviz.SandyBridge(), 1), greenviz.PostProcessing, cs, cfg)
	insitu := greenviz.Run(greenviz.NewNode(greenviz.SandyBridge(), 2), greenviz.InSitu, cs, cfg)
	it := greenviz.RunOnCluster(greenviz.NewCluster(greenviz.SandyBridge(), greenviz.TenGigE(), 3), greenviz.InTransit, cs, cfg)

	fmt.Printf("%-26s %10s %14s %14s\n", "pipeline", "makespan", "sim-node E", "cluster E")
	fmt.Printf("%-26s %9.1fs %14s %14s\n", "post-processing (1 node)", float64(post.ExecTime), post.Energy, post.Energy)
	fmt.Printf("%-26s %9.1fs %14s %14s\n", "in-situ (1 node)", float64(insitu.ExecTime), insitu.Energy, insitu.Energy)
	fmt.Printf("%-26s %9.1fs %14s %14s\n", "in-transit (2 nodes)", float64(it.ExecTime), it.SimEnergy, it.Energy)

	fmt.Printf("\nNetwork moved %s in %d transfers; the staging node rendered for %.1f s\n",
		it.BytesSent, it.Frames, float64(it.StagingBusy))
	fmt.Printf("and idled the rest — %.0f%% of its energy is static floor.\n",
		(1-float64(it.StagingBusy)/float64(it.ExecTime))*100)
	fmt.Println("\nIn-transit is the fastest and greenest per simulation node, but the")
	fmt.Println("dedicated staging node's idle power makes the cluster total exceed")
	fmt.Println("single-node in-situ unless the staging node is shared across jobs.")
}
