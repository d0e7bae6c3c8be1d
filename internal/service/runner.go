package service

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/units"
)

// runSpec is the production runner: it executes one normalized job
// spec against the simulation core and returns the job's report
// bytes. Determinism is the contract — equal specs must yield equal
// bytes, because the manager serves cached reports by digest:
//
//   - experiment jobs build a fresh per-job Suite (the suite dedups
//     the runs experiments share *within* the job; the manager's cache
//     dedups *across* jobs) and report the exact CLI stdout block,
//     which the golden-digest harness fingerprints;
//   - pipeline jobs run the same preset resolution as the CLI and
//     report the CLI's -format json encoding.
//
// Cancellation arrives through tel: the telemetry consumer panics
// with the jobCanceled sentinel at the next telemetry event once ctx
// is done, and safeRun translates that to context.Canceled.
func runSpec(ctx context.Context, spec JobSpec, tel *jobTelemetry) ([]byte, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = tel

	switch spec.Kind {
	case KindExperiment:
		exp, err := experiments.ByID(spec.Experiment)
		if err != nil {
			return nil, err
		}
		suite := experiments.NewSuite(spec.Seed, &cfg)
		suite.Fio.FileSize = units.Bytes(spec.FioGiB) * units.GiB
		r := exp.Run(suite)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []byte(r.Block()), nil

	case KindPipeline:
		p, err := core.PipelineByFlag(spec.Pipeline)
		if err != nil {
			return nil, err
		}
		platform, err := core.PlatformByFlag(spec.Device)
		if err != nil {
			return nil, err
		}
		if spec.PowerCapWatts > 0 {
			// The DVFS axis: a RAPL PL1-style cap throttles the CPU
			// model's operating frequency to hold package power here.
			platform.PackagePowerCap = units.Watts(spec.PowerCapWatts)
		}
		cs := core.CaseStudies()[spec.Case-1]
		result := core.RunOnCluster(core.NewClusterFor(platform, p, spec.Seed), p, cs, cfg)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := result.EncodeJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("unknown kind %q", spec.Kind)
}
