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
//   - pipeline jobs report the CLI's -format json encoding.
//
// The CLI resolves its runs through the same Config, Suite and Run.
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
		r := exp.Run(spec.Suite(cfg))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []byte(r.Block()), nil

	case KindPipeline:
		result, err := spec.Run(cfg)
		if err != nil {
			return nil, err
		}
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

// Suite builds the experiment suite a normalized spec runs on: its
// seed, cfg (the spec's Config plus any observers the caller attaches)
// and its fio file size.
func (s JobSpec) Suite(cfg core.AppConfig) *experiments.Suite {
	suite := experiments.NewSuite(s.Seed, &cfg)
	suite.Fio.FileSize = units.Bytes(s.FioGiB) * units.GiB
	return suite
}

// Run executes a normalized pipeline spec with cfg (the spec's Config
// plus any observers the caller attaches): it resolves the pipeline,
// the device preset under the spec's power cap, and the case study,
// and runs them on the platform the pipeline needs.
func (s JobSpec) Run(cfg core.AppConfig) (*core.RunResult, error) {
	p, err := core.PipelineByFlag(s.Pipeline)
	if err != nil {
		return nil, err
	}
	platform, err := core.PlatformByFlag(s.Device)
	if err != nil {
		return nil, err
	}
	if s.PowerCapWatts > 0 {
		// The DVFS axis: a RAPL PL1-style cap throttles the CPU
		// model's operating frequency to hold package power here.
		platform.PackagePowerCap = units.Watts(s.PowerCapWatts)
	}
	cs := core.CaseStudies()[s.Case-1]
	return core.RunOnCluster(core.NewClusterFor(platform, p, s.Seed), p, cs, cfg), nil
}
