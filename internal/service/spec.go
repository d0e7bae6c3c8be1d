// Package service is greenviz as a long-running system: a job manager
// with a bounded worker pool and a backpressured submit queue, a
// content-addressed result cache with singleflight dedup (N identical
// concurrent submits cost one underlying run), and an HTTP API on the
// standard library — job submission, status, deterministic report
// bytes, live per-stage progress over SSE, registry listings, plain
// text metrics, and pprof. cmd/greenvizd wraps it in a daemon with
// graceful drain.
//
// The serving model follows the live, steerable endpoints that make
// in-situ pipelines useful at scale (ISAAC, arXiv:1611.09048;
// Kageyama & Yamada's interactive exascale viewing): results and
// progress are exposed while jobs run, not dumped in batch at exit.
//
// Determinism is the load-bearing property end to end: a job spec
// normalizes to a canonical form, the canonical form digests to the
// cache key, and equal keys serve byte-identical report bodies — an
// experiment job's report is the exact stdout block the CLI prints
// (golden-digest gated), a pipeline job's report the CLI's -format
// json encoding.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
)

// JobSpec is the JSON body of POST /v1/jobs: either an experiment job
// (regenerate one registered artifact) or a pipeline job (run one
// pipeline configuration). Zero fields take the CLI's defaults, so
// {"experiment":"fig4"} reproduces `greenviz -experiment fig4`
// exactly — including its golden digest.
type JobSpec struct {
	// Kind is "experiment" or "pipeline"; empty infers it from which
	// of Experiment/Pipeline is set.
	Kind string `json:"kind,omitempty"`

	// Experiment is a registry ID ("fig4", "table3", ...); see
	// GET /v1/experiments.
	Experiment string `json:"experiment,omitempty"`

	// Pipeline is a pipeline flag name ("post", "insitu", "intransit",
	// "hybrid"); see GET /v1/pipelines.
	Pipeline string `json:"pipeline,omitempty"`
	// App selects the proxy application ("heat", "ocean").
	App string `json:"app,omitempty"`
	// Device selects the storage stack ("hdd", "ssd", "raid4", "nvram").
	Device string `json:"device,omitempty"`
	// Case is the case-study number (1..3).
	Case int `json:"case,omitempty"`

	// Seed is the master seed (default 1, like the CLI).
	Seed uint64 `json:"seed,omitempty"`
	// RealSubsteps bounds host fidelity (default 16, like the CLI).
	RealSubsteps int `json:"real_substeps,omitempty"`
	// FioGiB sizes the Table III fio files (default 4).
	FioGiB int `json:"fio_gib,omitempty"`
	// Faults is the CLI's -faults spec string (empty: injection off).
	Faults string `json:"faults,omitempty"`

	// PowerCapWatts, when positive, applies a RAPL PL1-style package
	// power limit to the platform (pipeline jobs only): the CPU model
	// throttles its DVFS operating point to hold package power at the
	// cap, stretching compute phases. This is the frequency axis of a
	// campaign sweep; it changes run output, so it is part of the
	// content address.
	PowerCapWatts float64 `json:"power_cap_watts,omitempty"`

	// The ablation knobs below map one-to-one onto AppConfig fields
	// (pipeline jobs only) so campaigns can sweep them; all are part of
	// the content address.
	//
	// InsituNoSync skips the in-situ pipeline's per-frame fsync.
	InsituNoSync bool `json:"insitu_nosync,omitempty"`
	// CompressInsitu DEFLATE-compresses the in-situ reduced product.
	CompressInsitu bool `json:"compress_insitu,omitempty"`
	// AsyncCheckpoint lets post-processing checkpoints drain in the
	// background instead of fsyncing each one.
	AsyncCheckpoint bool `json:"async_checkpoint,omitempty"`
	// CinemaVariants renders that many extra parameterized views per
	// in-situ event (0 = off; max 64).
	CinemaVariants int `json:"cinema_variants,omitempty"`
}

// DecodeStrict decodes the one JSON value of a request body into v.
// Unknown object fields are an error, and so is anything after the
// value but whitespace — a second value or a stray closing bracket —
// so a concatenated body is never half-accepted. A read error stays
// matchable with errors.As, for the caller to map (an oversized body
// is 413).
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil:
		return errors.New("trailing data after the JSON value")
	default:
		return fmt.Errorf("trailing data after the JSON value: %w", err)
	}
}

// Job kinds.
const (
	KindExperiment = "experiment"
	KindPipeline   = "pipeline"
)

// Normalized returns the spec with defaults applied and every field
// validated, or an error describing the first problem. Two specs that
// normalize equal are the same job: Digest hashes the normalized form.
func (s JobSpec) Normalized() (JobSpec, error) {
	n := s
	if n.Kind == "" {
		switch {
		case n.Experiment != "" && n.Pipeline == "":
			n.Kind = KindExperiment
		case n.Pipeline != "" && n.Experiment == "":
			n.Kind = KindPipeline
		default:
			return n, fmt.Errorf("spec needs exactly one of experiment or pipeline")
		}
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.RealSubsteps == 0 {
		n.RealSubsteps = 16
	}
	if n.RealSubsteps < 0 || n.RealSubsteps > core.DefaultAppConfig().SubstepsPerIteration {
		return n, fmt.Errorf("real_substeps %d out of range", n.RealSubsteps)
	}
	if n.FioGiB == 0 {
		n.FioGiB = 4
	}
	if n.FioGiB < 0 || n.FioGiB > 1024 {
		return n, fmt.Errorf("fio_gib %d out of range", n.FioGiB)
	}
	if _, err := fault.ParseSpec(n.Faults); err != nil {
		return n, fmt.Errorf("faults: %w", err)
	}
	if !(n.PowerCapWatts >= 0 && n.PowerCapWatts <= 1e4) {
		return n, fmt.Errorf("power_cap_watts %g out of range 0..10000", n.PowerCapWatts)
	}
	if n.PowerCapWatts == 0 {
		// -0 is no cap as well; store +0 so both digest alike (and the
		// JSON encoding, which omits either, round-trips the digest).
		n.PowerCapWatts = 0
	}
	if n.CinemaVariants < 0 || n.CinemaVariants > 64 {
		return n, fmt.Errorf("cinema_variants %d out of range 0..64", n.CinemaVariants)
	}

	switch n.Kind {
	case KindExperiment:
		if n.Pipeline != "" || n.App != "" || n.Device != "" || n.Case != 0 {
			return n, fmt.Errorf("experiment jobs take no pipeline fields")
		}
		if n.PowerCapWatts != 0 || n.InsituNoSync || n.CompressInsitu || n.AsyncCheckpoint || n.CinemaVariants != 0 {
			return n, fmt.Errorf("experiment jobs take no pipeline knobs (power cap, nosync, compress, async, cinema)")
		}
		if n.Experiment == "all" {
			return n, fmt.Errorf("submit experiments individually (see GET /v1/experiments)")
		}
		if _, err := experiments.ByID(n.Experiment); err != nil {
			return n, err
		}
	case KindPipeline:
		if n.Experiment != "" {
			return n, fmt.Errorf("pipeline jobs take no experiment field")
		}
		if _, err := core.PipelineByFlag(n.Pipeline); err != nil {
			return n, err
		}
		if n.App == "" {
			n.App = "heat"
		}
		if n.Device == "" {
			n.Device = "hdd"
		}
		if n.Case == 0 {
			n.Case = 1
		}
		if n.Case < 1 || n.Case > len(core.CaseStudies()) {
			return n, fmt.Errorf("case %d out of range 1..%d", n.Case, len(core.CaseStudies()))
		}
		cfg := core.DefaultAppConfig()
		if err := core.ConfigureApp(&cfg, n.App); err != nil {
			return n, err
		}
		if _, err := core.PlatformByFlag(n.Device); err != nil {
			return n, err
		}
	default:
		return n, fmt.Errorf("unknown kind %q", n.Kind)
	}
	return n, nil
}

// Config derives the run configuration a normalized spec describes.
// The CLI derives its runs' configurations here too, from a spec
// built from its flags.
func (s JobSpec) Config() (core.AppConfig, error) {
	cfg := core.DefaultAppConfig()
	if s.RealSubsteps > 0 {
		cfg.RealSubsteps = s.RealSubsteps
	}
	cfg.InsituNoSync = s.InsituNoSync
	cfg.CompressInsitu = s.CompressInsitu
	cfg.AsyncCheckpoint = s.AsyncCheckpoint
	cfg.CinemaVariants = s.CinemaVariants
	if err := core.ConfigureApp(&cfg, s.App); err != nil {
		return cfg, err
	}
	fc, err := fault.ParseSpec(s.Faults)
	if err != nil {
		return cfg, err
	}
	cfg.Faults = fc
	return cfg, nil
}

// Digest returns the job's content address: Normalized followed by
// DigestNormalized. Identical digests mean identical report bytes, so
// the manager serves N equal submits from one execution.
func (s JobSpec) Digest() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	return n.DigestNormalized(), nil
}

// DigestNormalized is Digest for a spec that is already in normalized
// form, skipping the re-validation pass. The address is a hex SHA-256
// over one line of the spec's fields (form v2):
//
//	v2 kind:%s exp:%s pipe:%s app:%s dev:%s case:%d seed:%d real:%d fio:%d faults:%q pcap:%g nosync:%t compress:%t async:%t cinema:%d\n
//
// The line is unambiguous: faults is quoted, and every other string
// comes from a closed set once normalized. It needs nothing else: the
// run configuration (Config) is a pure function of these fields and
// the build, so within one build two specs share a report exactly when
// they share this line.
//
// Across builds the address holds only while the reports do. The
// leading version is therefore bumped by any change that alters the
// report of an unchanged spec — any golden -update — so a durable
// store never serves a report the current build would not produce.
func (s JobSpec) DigestNormalized() string {
	var buf [256]byte
	b := append(buf[:0], "v2 kind:"...)
	b = append(b, s.Kind...)
	b = append(b, " exp:"...)
	b = append(b, s.Experiment...)
	b = append(b, " pipe:"...)
	b = append(b, s.Pipeline...)
	b = append(b, " app:"...)
	b = append(b, s.App...)
	b = append(b, " dev:"...)
	b = append(b, s.Device...)
	b = append(b, " case:"...)
	b = strconv.AppendInt(b, int64(s.Case), 10)
	b = append(b, " seed:"...)
	b = strconv.AppendUint(b, s.Seed, 10)
	b = append(b, " real:"...)
	b = strconv.AppendInt(b, int64(s.RealSubsteps), 10)
	b = append(b, " fio:"...)
	b = strconv.AppendInt(b, int64(s.FioGiB), 10)
	b = append(b, " faults:"...)
	b = strconv.AppendQuote(b, s.Faults)
	b = append(b, " pcap:"...)
	b = strconv.AppendFloat(b, s.PowerCapWatts, 'g', -1, 64)
	b = append(b, " nosync:"...)
	b = strconv.AppendBool(b, s.InsituNoSync)
	b = append(b, " compress:"...)
	b = strconv.AppendBool(b, s.CompressInsitu)
	b = append(b, " async:"...)
	b = strconv.AppendBool(b, s.AsyncCheckpoint)
	b = append(b, " cinema:"...)
	b = strconv.AppendInt(b, int64(s.CinemaVariants), 10)
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Describe returns a short human label for logs and listings.
func (s JobSpec) Describe() string {
	if s.Kind == KindPipeline {
		return fmt.Sprintf("pipeline %s app=%s device=%s case=%d seed=%d", s.Pipeline, s.App, s.Device, s.Case, s.Seed)
	}
	return fmt.Sprintf("experiment %s seed=%d", s.Experiment, s.Seed)
}
