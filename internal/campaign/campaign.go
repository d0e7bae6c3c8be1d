// Package campaign turns "run one job" into "answer a greenness
// question over a configuration space": the declarative parameter-sweep
// orchestration layer on top of the greenvizd job manager.
//
// The paper's contribution is not any single run but a comparison — it
// sweeps pipeline choice, I/O strategy, and frequency across a fixed
// platform and asks which configuration is greenest. A Spec names that
// sweep declaratively: a base job, a list of axes (pipeline, device,
// power cap, fault spec, any swept AppConfig knob), and an objective.
// The engine expands the cross-product in a deterministic order,
// content-addresses the whole campaign (SHA-256 over what its report
// prints of the spec plus every point's job digest), and executes
// points through the existing service manager — so identical points
// dedupe onto the memory and disk result caches, and resubmitting a
// half-finished campaign after a daemon restart re-runs only the
// points whose reports were lost.
//
// As points complete, a streaming aggregator folds each RunResult into
// a comparative report: per-axis marginal tables, the energy-vs-time
// Pareto frontier, and a "greenest configuration" recommendation
// cross-checked against the paper's data-reorganization advisor
// (core.Advise). Report bytes are deterministic at any worker count:
// the fold keeps per-point summaries and the report renders from them
// in expansion order.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/service"
)

// Axis is one swept dimension: a job-spec field name and the values it
// takes, in sweep order. Values are strings regardless of the field's
// type; expansion parses them per axis (so a spec file stays uniform).
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Objectives a campaign can optimize.
const (
	ObjectiveEnergy     = "energy"     // minimize energy_joules (the default)
	ObjectiveTime       = "time"       // minimize exec_seconds
	ObjectiveEfficiency = "efficiency" // maximize frames per kilojoule
)

// Expansion caps. MaxPoints in a Spec may lower the point cap but
// never exceed HardMaxPoints.
const (
	MaxAxes          = 8
	MaxAxisValues    = 64
	DefaultMaxPoints = 256
	HardMaxPoints    = 4096
)

// Spec declares one campaign: a base pipeline job, the axes swept over
// it, and the objective that picks the greenest configuration.
type Spec struct {
	// Name labels the campaign in reports and listings.
	Name string `json:"name"`
	// Base is the job every point starts from; axis values overwrite
	// its fields. Every expanded point must normalize to a valid
	// pipeline job (experiment jobs produce prose, not RunResults, so
	// they cannot be aggregated).
	Base service.JobSpec `json:"base"`
	// Axes are the swept dimensions, outermost first: expansion is
	// row-major with the last axis varying fastest.
	Axes []Axis `json:"axes"`
	// Objective is one of energy (default), time, efficiency.
	Objective string `json:"objective,omitempty"`
	// MaxPoints caps the expansion (default 256, hard cap 4096); a
	// cross-product larger than the cap is rejected, not truncated.
	MaxPoints int `json:"max_points,omitempty"`
}

// sweepAxes lists the axis names a campaign may sweep, in menu order.
// Every name maps onto one JobSpec field.
func sweepAxes() []string {
	return []string{
		"pipeline", "app", "device", "case", "seed", "real_substeps",
		"power_cap_watts", "faults",
		"insitu_nosync", "compress_insitu", "async_checkpoint", "cinema_variants",
	}
}

// applyAxis sets one axis value on a job spec, parsing the string form
// into the field's type.
func applyAxis(s *service.JobSpec, name, val string) error {
	fail := func(err error) error {
		return fmt.Errorf("axis %s: value %q: %w", name, val, err)
	}
	switch name {
	case "pipeline":
		s.Pipeline = val
	case "app":
		s.App = val
	case "device":
		s.Device = val
	case "faults":
		s.Faults = val
	case "case":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fail(err)
		}
		s.Case = n
	case "seed":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fail(err)
		}
		s.Seed = n
	case "real_substeps":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fail(err)
		}
		s.RealSubsteps = n
	case "cinema_variants":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fail(err)
		}
		s.CinemaVariants = n
	case "power_cap_watts":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fail(err)
		}
		s.PowerCapWatts = f
	case "insitu_nosync", "compress_insitu", "async_checkpoint":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fail(err)
		}
		switch name {
		case "insitu_nosync":
			s.InsituNoSync = b
		case "compress_insitu":
			s.CompressInsitu = b
		case "async_checkpoint":
			s.AsyncCheckpoint = b
		}
	default:
		return fmt.Errorf("unknown axis %q (valid: %s)", name, strings.Join(sweepAxes(), ", "))
	}
	return nil
}

// Normalized validates the spec and applies defaults, or describes the
// first problem. Two specs that normalize equal expand to the same
// campaign.
func (s Spec) Normalized() (Spec, error) {
	n := s
	if n.Name == "" {
		return n, fmt.Errorf("campaign needs a name")
	}
	switch n.Objective {
	case "":
		n.Objective = ObjectiveEnergy
	case ObjectiveEnergy, ObjectiveTime, ObjectiveEfficiency:
	default:
		return n, fmt.Errorf("unknown objective %q (valid: %s, %s, %s)",
			n.Objective, ObjectiveEnergy, ObjectiveTime, ObjectiveEfficiency)
	}
	if n.MaxPoints == 0 {
		n.MaxPoints = DefaultMaxPoints
	}
	if n.MaxPoints < 1 || n.MaxPoints > HardMaxPoints {
		return n, fmt.Errorf("max_points %d out of range 1..%d", n.MaxPoints, HardMaxPoints)
	}
	if len(n.Axes) == 0 {
		return n, fmt.Errorf("campaign needs at least one axis")
	}
	if len(n.Axes) > MaxAxes {
		return n, fmt.Errorf("%d axes exceed the cap of %d", len(n.Axes), MaxAxes)
	}
	seen := map[string]bool{}
	for _, ax := range n.Axes {
		if seen[ax.Name] {
			return n, fmt.Errorf("axis %q listed twice", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return n, fmt.Errorf("axis %q has no values", ax.Name)
		}
		if len(ax.Values) > MaxAxisValues {
			return n, fmt.Errorf("axis %q has %d values, cap is %d", ax.Name, len(ax.Values), MaxAxisValues)
		}
		vals := map[string]bool{}
		for _, v := range ax.Values {
			if vals[v] {
				return n, fmt.Errorf("axis %q repeats value %q", ax.Name, v)
			}
			vals[v] = true
			// Parse eagerly so a bad value fails the whole campaign at
			// submit time, not point 3117 of the expansion.
			var probe service.JobSpec
			if err := applyAxis(&probe, ax.Name, v); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Point is one expanded configuration: the axis values it takes, the
// normalized job spec they produce, and that job's content address.
type Point struct {
	Index  int             `json:"index"`
	Label  string          `json:"label"`
	Values []string        `json:"values"`
	Spec   service.JobSpec `json:"spec"`
	Digest string          `json:"digest"`
}

// Expand produces the campaign's points in deterministic row-major
// order (the last axis varies fastest, like nested loops in
// declaration order). The spec must already be normalized. Every point
// must validate as a pipeline job; the first invalid point aborts the
// expansion with its axis coordinates in the error.
func Expand(s Spec) ([]Point, error) {
	total := 1
	for _, ax := range s.Axes {
		if total > s.MaxPoints/len(ax.Values)+1 {
			// Avoid overflow on absurd axis products before the real cap
			// check below.
			total = s.MaxPoints + 1
			break
		}
		total *= len(ax.Values)
	}
	if total > s.MaxPoints {
		return nil, fmt.Errorf("expansion of %d points exceeds max_points %d", total, s.MaxPoints)
	}

	points := make([]Point, 0, total)
	values := make([]string, len(s.Axes))
	// One flat backing array serves every point's Values slice — the
	// per-point copies are views into it (full-capacity slicing keeps
	// them immutable to each other's appends).
	flat := make([]string, 0, total*len(s.Axes))
	var label strings.Builder
	for i := 0; i < total; i++ {
		rem := i
		for k := len(s.Axes) - 1; k >= 0; k-- {
			n := len(s.Axes[k].Values)
			values[k] = s.Axes[k].Values[rem%n]
			rem /= n
		}
		spec := s.Base
		label.Reset()
		for k, ax := range s.Axes {
			if err := applyAxis(&spec, ax.Name, values[k]); err != nil {
				return nil, fmt.Errorf("point %d: %w", i, err)
			}
			if k > 0 {
				label.WriteByte(' ')
			}
			label.WriteString(ax.Name)
			label.WriteByte('=')
			label.WriteString(values[k])
		}
		norm, err := spec.Normalized()
		if err != nil {
			return nil, fmt.Errorf("point %d (%s): %w", i, label.String(), err)
		}
		if norm.Kind != service.KindPipeline {
			return nil, fmt.Errorf("point %d (%s): campaigns sweep pipeline jobs, got kind %q", i, label.String(), norm.Kind)
		}
		start := len(flat)
		flat = append(flat, values...)
		points = append(points, Point{
			Index:  i,
			Label:  label.String(),
			Values: flat[start:len(flat):len(flat)],
			Spec:   norm,
			// The spec was just normalized, so skip Digest's re-validation.
			Digest: norm.DigestNormalized(),
		})
	}
	return points, nil
}

// appendCanonical appends the campaign's canonical form (v2): what
// the report prints of the normalized spec — name, objective, axes —
// plus every expanded point's job digest, which commits to the exact
// job each point runs (the base spec reaches the address only through
// them):
//
//	campaign v2 name:%q objective:%s\n
//	axis %s:[%q ...]\n   (per axis)
//	point %d %s\n        (per point)
//
// A change to any point's report re-keys the campaign through that
// point's digest.
func appendCanonical(b []byte, s Spec, points []Point) []byte {
	b = append(b, "campaign v2 name:"...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, " objective:"...)
	b = append(b, s.Objective...)
	b = append(b, '\n')
	for _, ax := range s.Axes {
		b = append(b, "axis "...)
		b = append(b, ax.Name...)
		b = append(b, ":["...)
		for i, v := range ax.Values {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendQuote(b, v)
		}
		b = append(b, "]\n"...)
	}
	for _, p := range points {
		b = append(b, "point "...)
		b = strconv.AppendInt(b, int64(p.Index), 10)
		b = append(b, ' ')
		b = append(b, p.Digest...)
		b = append(b, '\n')
	}
	return b
}

// Digest content-addresses a normalized, expanded campaign: a hex
// SHA-256 over its canonical form. Equal digests mean byte-identical
// campaign reports.
func Digest(s Spec, points []Point) string {
	sum := sha256.Sum256(appendCanonical(nil, s, points))
	return hex.EncodeToString(sum[:])
}

// IDFromDigest shortens a campaign digest to its routable ID.
func IDFromDigest(digest string) string { return digest[:12] }
