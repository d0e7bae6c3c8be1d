package main

import (
	"fmt"
	"os"
	"path/filepath"

	greenviz "repro"
	"repro/internal/service"
)

// runPipeline executes one explicit pipeline configuration (the CLI's
// -pipeline mode) and prints its measurements: human-readable text by
// default, or (-format json) the canonical RunResult encoding — the
// same bytes the greenvizd service serves as the report of spec. The
// CLI attaches only its observers to the spec's config: -frames keeps
// the frames, -events narrates the telemetry stream to stderr. Neither
// changes the stdout bytes. An unknown format fails before the run.
func runPipeline(spec service.JobSpec, framesDir, format string, events bool) error {
	var asJSON bool
	switch format {
	case "", "text":
	case "json":
		asJSON = true
	default:
		return fmt.Errorf("unknown format %q (text, json)", format)
	}
	norm, err := spec.Normalized()
	if err != nil {
		return err
	}
	cfg, err := norm.Config()
	if err != nil {
		return err
	}
	cfg.RetainFrames = framesDir != ""
	if events {
		cfg.Telemetry = &eventPrinter{w: os.Stderr}
	}
	r, err := norm.Run(cfg)
	if err != nil {
		return err
	}

	if asJSON {
		if err := r.EncodeJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		printRun(r)
	}
	return dumpFrames(r, framesDir)
}

// printStageTimes reports per-stage times in the canonical order; the
// stage list comes from core so new stages print automatically.
func printStageTimes(r *greenviz.Result) {
	for _, st := range greenviz.StageNames() {
		if d, ok := r.StageTime[st]; ok {
			fmt.Printf("  stage %-13s %8.1f s (%.0f%%)\n", st, float64(d), float64(d)/float64(r.ExecTime)*100)
		}
	}
}

// printRun reports a run. A run with a staging node adds the per-node
// energy split and the network traffic.
func printRun(r *greenviz.Result) {
	fmt.Printf("pipeline: %s (%s)\n", r.Pipeline, r.Case.Name)
	fmt.Printf("  execution time  %10.1f s\n", float64(r.ExecTime))
	fmt.Printf("  average power   %12s\n", r.AvgPower)
	fmt.Printf("  peak power      %12s\n", r.PeakPower)
	fmt.Printf("  energy          %12s\n", r.Energy)
	if r.StagingEnergy > 0 {
		fmt.Printf("  sim-node energy %12s\n", r.SimEnergy)
		fmt.Printf("  staging energy  %12s\n", r.StagingEnergy)
		fmt.Printf("  network moved   %12s in %d transfers\n", r.BytesSent, r.Frames)
	}
	fmt.Printf("  frames          %12d (checksum %016x)\n", r.Frames, r.FrameChecksum)
	printStageTimes(r)
	if r.Faults.Total() > 0 || r.Recovery.Total() > 0 {
		fmt.Printf("  faults injected %12d (%d bit-rot, %d read, %d write, %d spikes, %d drops)\n",
			r.Faults.Total(), r.Faults.BitRots, r.Faults.ReadErrors, r.Faults.WriteErrors,
			r.Faults.LatencySpikes, r.Faults.ServerDrops)
		fmt.Printf("  recovery        %12d retries, %d re-simulated frames, %d lost writes, %.1f s backoff\n",
			r.Recovery.WriteRetries+r.Recovery.ReadRetries, r.Recovery.Resimulations,
			r.Recovery.LostWrites, float64(r.Recovery.BackoffTime))
	}
}

// dumpFrames writes a run's retained frames to dir, if requested.
func dumpFrames(r *greenviz.Result, framesDir string) error {
	if framesDir == "" {
		return nil
	}
	if err := os.MkdirAll(framesDir, 0o755); err != nil {
		return err
	}
	for i, png := range r.FramePNGs {
		name := filepath.Join(framesDir, fmt.Sprintf("frame-%04d.png", i))
		if err := os.WriteFile(name, png, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d frames to %s\n", len(r.FramePNGs), framesDir)
	return nil
}
