// Command greenviz regenerates the paper's tables and figures from the
// command line.
//
// Usage:
//
//	greenviz -list
//	greenviz -experiment fig10
//	greenviz -experiment all -seed 7
//	greenviz -experiment all -workers 8
//	greenviz -experiment fig5 -csv /tmp/profiles
//	greenviz -campaign examples/campaigns/greenest-config.json
//
// Each experiment prints the rows or ASCII-rendered series the paper
// reports, plus the paper's published values for comparison. With
// -experiment all the drivers run on -workers goroutines (default
// GOMAXPROCS); reports still print in registry order and are
// byte-identical at any worker count, with per-experiment wall times
// streamed to stderr as drivers finish (-quiet suppresses them). -csv
// additionally dumps the power profiles of the case-study runs as CSV
// for external plotting. In pipeline mode, -format json emits the
// canonical RunResult encoding — the same bytes the greenvizd service
// serves for an identical job. The pipeline-mode flags (-app, -case,
// -device, -events, -format, -frames) are an error without -pipeline.
//
// The run flags fill a service.JobSpec, which resolves them as the
// daemon resolves a job's fields: a zero value takes the default
// (-seed 0 runs seed 1, -real-substeps 0 computes 16 sub-steps), and an
// out-of-range value is an error, as the daemon answers it with 400.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	greenviz "repro"
	"repro/internal/core"
	"repro/internal/service"
)

// main defers all work to run so the profile writers flush on every
// exit path — os.Exit skips defers, so no other function calls it.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		expID        = flag.String("experiment", "", "experiment id (see -list), or \"all\"")
		list         = flag.Bool("list", false, "list available experiments")
		seed         = flag.Uint64("seed", 1, "master seed; equal seeds give identical output (0 means 1)")
		realSubsteps = flag.Int("real-substeps", 16, "solver sub-steps computed per iteration (1..1536, 0 means 16); higher is more faithful, slower")
		fioGiB       = flag.Int("fio-gib", 4, "fio test file size in GiB (1..1024, 0 means 4; Table III uses 4)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiment drivers for -experiment all")
		csvDir       = flag.String("csv", "", "directory to dump case-study power profiles as CSV")
		faults       = flag.String("faults", "", "inject storage faults: comma-separated bitrot=,readerr=,writeerr=,latency=,drop= (probabilities), spike=,timeout= (seconds), seed= — empty disables injection (byte-identical output)")

		campaignPath = flag.String("campaign", "", "run a campaign spec file (JSON): sweep pipeline/device/power-cap axes and print the greenness report")

		pipeline  = flag.String("pipeline", "", "run one pipeline instead of an experiment: "+strings.Join(pipelineFlags(), ", "))
		app       = flag.String("app", "heat", "proxy application: "+strings.Join(greenviz.AppFlags(), ", "))
		device    = flag.String("device", "hdd", "storage device: "+strings.Join(greenviz.DeviceFlags(), ", "))
		caseIdx   = flag.Int("case", 1, "case study number (1..3, 0 means 1)")
		framesDir = flag.String("frames", "", "directory to dump rendered PNG frames (pipeline mode)")
		events    = flag.Bool("events", false, "narrate the run's telemetry stream (stages, retries, faults) on stderr (pipeline mode)")
		format    = flag.String("format", "text", "pipeline-mode output format: text, json (the service's report encoding)")
		quiet     = flag.Bool("quiet", false, "suppress the per-experiment wall-time progress on stderr")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap (alloc) profile to this file at exit")
	)
	// Usage lists the experiment registry and pipeline names, derived
	// from the registries themselves so new entries appear automatically.
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nexperiments (-experiment <id>, or \"all\"):\n")
		for _, e := range greenviz.Experiments() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", e.ID, e.Description)
		}
	}
	flag.Parse()

	if *pipeline == "" {
		// Only runPipeline reads these; any other mode would silently
		// ignore them.
		pipelineOnly := map[string]bool{"app": true, "case": true, "device": true, "events": true, "format": true, "frames": true}
		stray := ""
		flag.Visit(func(f *flag.Flag) {
			if stray == "" && pipelineOnly[f.Name] {
				stray = f.Name
			}
		})
		if stray != "" {
			fmt.Fprintf(os.Stderr, "greenviz: -%s applies only with -pipeline\n", stray)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greenviz: cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "greenviz: cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "greenviz: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			// alloc_space is the view the allocation-elimination work
			// cares about; the profile also carries inuse_space.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "greenviz: memprofile: %v\n", err)
			}
		}()
	}

	if *campaignPath != "" {
		if err := runCampaign(*campaignPath, *workers, *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "greenviz: %v\n", err)
			return 1
		}
		return 0
	}

	spec := service.JobSpec{Seed: *seed, RealSubsteps: *realSubsteps, FioGiB: *fioGiB, Faults: *faults}
	if *pipeline != "" {
		spec.Pipeline, spec.App, spec.Device, spec.Case = *pipeline, *app, *device, *caseIdx
		if err := runPipeline(spec, *framesDir, *format, *events); err != nil {
			fmt.Fprintf(os.Stderr, "greenviz: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range greenviz.Experiments() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Description)
		}
		return 0
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "greenviz: pass -experiment <id> or -list")
		return 2
	}

	suite, err := experimentSuite(spec, *expID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greenviz: %v\n", err)
		return 1
	}
	// The suite itself is quiet by default (library and daemon embeds
	// stay silent); the CLI opts into live wall-time lines on stderr
	// unless -quiet. Stdout stays byte-identical either way.
	if !*quiet {
		suite.Log = os.Stderr
	}

	if *expID == "all" {
		start := time.Now()
		reports, err := greenviz.RunAllExperiments(context.Background(), suite, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greenviz: %v\n", err)
			return 1
		}
		// Reports to stdout in registry order; progress and the timing
		// footer go to stderr so stdout stays byte-identical at any
		// -workers value.
		for _, r := range reports {
			fmt.Print(r.Block())
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%-12s %8.2fs (workers=%d)\n", "total", time.Since(start).Seconds(), *workers)
		}
	} else {
		r, err := greenviz.RunExperiment(suite, *expID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greenviz: %v\n", err)
			return 1
		}
		fmt.Print(r.Block())
	}

	if *csvDir != "" {
		if err := dumpCSVs(suite, *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "greenviz: csv dump: %v\n", err)
			return 1
		}
	}
	return 0
}

// experimentSuite normalizes the job spec of every experiment id names
// (each registry ID for "all") and builds the suite they run on. The
// specs differ only in the experiment, so they share one config and
// suite. A -faults spec applies to every pipeline run the experiments
// perform; left empty, all report bodies are byte-identical to a
// fault-free build.
func experimentSuite(spec service.JobSpec, id string) (*greenviz.Suite, error) {
	ids := []string{id}
	if id == "all" {
		ids = ids[:0]
		for _, e := range greenviz.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	var norm service.JobSpec
	for _, id := range ids {
		spec.Experiment = id
		var err error
		if norm, err = spec.Normalized(); err != nil {
			return nil, err
		}
	}
	cfg, err := norm.Config()
	if err != nil {
		return nil, err
	}
	return norm.Suite(cfg), nil
}

// pipelineFlags lists the -pipeline names from the core registry.
func pipelineFlags() []string {
	var out []string
	for _, p := range greenviz.Pipelines() {
		out = append(out, p.Flag())
	}
	return out
}

// dumpCSVs writes the power profile of every cached case-study run.
func dumpCSVs(s *greenviz.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for _, cs := range greenviz.CaseStudies() {
		for _, p := range []greenviz.Pipeline{greenviz.PostProcessing, greenviz.InSitu} {
			res := suiteRun(s, p, cs)
			if res == nil {
				continue
			}
			name := fmt.Sprintf("%s-%s.csv", p, strings.ReplaceAll(strings.ToLower(cs.Name), " ", "-"))
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			if err := res.Profile.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			n++
		}
	}
	fmt.Printf("wrote %d profile CSVs to %s\n", n, dir)
	return nil
}

// suiteRun peeks at the suite's cache through the comparison helpers;
// it triggers the runs if the chosen experiments didn't already.
func suiteRun(s *greenviz.Suite, p greenviz.Pipeline, cs greenviz.CaseStudy) *core.RunResult {
	for i, c := range greenviz.CaseStudies() {
		if c.Name == cs.Name {
			cmp := s.ComparisonFor(i)
			if p == greenviz.PostProcessing {
				return cmp.Post
			}
			return cmp.InSitu
		}
	}
	return nil
}
