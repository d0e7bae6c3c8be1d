package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestNormalizedDefaults(t *testing.T) {
	n, err := JobSpec{Experiment: "fig4"}.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if n.Kind != KindExperiment {
		t.Errorf("kind = %q, want experiment", n.Kind)
	}
	if n.Seed != 1 || n.RealSubsteps != 16 || n.FioGiB != 4 {
		t.Errorf("defaults = seed %d substeps %d fio %d, want 1/16/4", n.Seed, n.RealSubsteps, n.FioGiB)
	}

	p, err := JobSpec{Pipeline: "insitu"}.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if p.Kind != KindPipeline || p.App != "heat" || p.Device != "hdd" || p.Case != 1 {
		t.Errorf("pipeline defaults = %+v", p)
	}
}

func TestNormalizedRejects(t *testing.T) {
	nan := math.NaN()
	bad := []JobSpec{
		{},                                       // neither kind
		{Experiment: "fig4", Pipeline: "insitu"}, // both
		{Experiment: "nope"},                     // unknown id
		{Experiment: "all"},                      // not submittable
		{Pipeline: "warp"},                       // unknown pipeline
		{Pipeline: "insitu", Case: 99},           // case out of range
		{Pipeline: "insitu", App: "doom"},        // unknown app
		{Pipeline: "insitu", Device: "floppy"},   // unknown device
		{Experiment: "fig4", Device: "ssd"},      // cross-kind field
		{Experiment: "fig4", RealSubsteps: -1},   // bad substeps
		{Experiment: "fig4", Faults: "bogus"},    // bad fault spec
		{Kind: "party", Experiment: "fig4"},      // unknown kind
		{Kind: KindPipeline, Experiment: "fig4"}, // kind/field mismatch
		{Experiment: "table3", FioGiB: -2},       // bad fio size
		{Experiment: "fig4", PowerCapWatts: 50},  // pipeline knob on experiment
		{Experiment: "fig4", InsituNoSync: true}, // pipeline knob on experiment
		{Pipeline: "post", PowerCapWatts: -1},    // negative cap
		{Pipeline: "post", PowerCapWatts: 2e4},   // absurd cap
		{Pipeline: "post", PowerCapWatts: nan},   // a campaign axis value can parse to NaN
		{Pipeline: "insitu", CinemaVariants: 65}, // over variant cap
	}
	for _, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("Normalized(%+v) accepted, want error", s)
		}
	}
}

// TestDigestCanonical pins the content-address contract: explicit
// defaults and elided defaults are the same job.
func TestDigestCanonical(t *testing.T) {
	zero, err := JobSpec{Experiment: "fig4"}.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	full, err := JobSpec{
		Kind: KindExperiment, Experiment: "fig4",
		Seed: 1, RealSubsteps: 16, FioGiB: 4,
	}.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	if zero != full {
		t.Errorf("elided defaults digest %s != explicit defaults digest %s", zero, full)
	}
	if len(zero) != 64 || strings.Trim(zero, "0123456789abcdef") != "" {
		t.Errorf("digest %q is not hex sha256", zero)
	}

	// A -0 power cap is no cap, like 0.
	noCap, err := JobSpec{Pipeline: "insitu"}.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	if negZero, err := (JobSpec{Pipeline: "insitu", PowerCapWatts: math.Copysign(0, -1)}).Digest(); err != nil || negZero != noCap {
		t.Errorf("power cap -0 digest %s (%v) != no-cap digest %s", negZero, err, noCap)
	}
}

// TestDigestSensitivity: every spec knob that changes the run must
// change the address.
func TestDigestSensitivity(t *testing.T) {
	base := JobSpec{Pipeline: "insitu", Case: 3}
	baseDigest, err := base.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	variants := map[string]JobSpec{
		"pipeline": {Pipeline: "post", Case: 3},
		"case":     {Pipeline: "insitu", Case: 2},
		"app":      {Pipeline: "insitu", Case: 3, App: "ocean"},
		"device":   {Pipeline: "insitu", Case: 3, Device: "ssd"},
		"seed":     {Pipeline: "insitu", Case: 3, Seed: 7},
		"substeps": {Pipeline: "insitu", Case: 3, RealSubsteps: 2},
		"faults":   {Pipeline: "insitu", Case: 3, Faults: "bitrot=1e-9"},
		"kind":     {Experiment: "fig4"},
		// The campaign sweep knobs are all digest-affecting: the power
		// cap via its explicit canonical line, the ablation knobs via the
		// config's canonical "knobs" form.
		"power_cap":        {Pipeline: "insitu", Case: 3, PowerCapWatts: 80},
		"insitu_nosync":    {Pipeline: "insitu", Case: 3, InsituNoSync: true},
		"compress_insitu":  {Pipeline: "insitu", Case: 3, CompressInsitu: true},
		"async_checkpoint": {Pipeline: "insitu", Case: 3, AsyncCheckpoint: true},
		"cinema_variants":  {Pipeline: "insitu", Case: 3, CinemaVariants: 2},
	}
	for name, v := range variants {
		d, err := v.Digest()
		if err != nil {
			t.Fatalf("%s: Digest: %v", name, err)
		}
		if d == baseDigest {
			t.Errorf("changing %s did not change the digest", name)
		}
	}
}

// TestDigestMatchesFmtReference pins the digest preimage to the
// fmt.Fprintf formulation the strconv appender replaced: any textual
// drift in the header or canonical form would silently re-key the
// whole result cache.
func TestDigestMatchesFmtReference(t *testing.T) {
	specs := []JobSpec{
		{Pipeline: "insitu", Case: 3},
		{Pipeline: "post", App: "ocean", Device: "ssd", Seed: 7, PowerCapWatts: 42.5},
		{Pipeline: "hybrid", Faults: "bitrot=0.01,readerr=0.001", CinemaVariants: 3},
		{Experiment: "fig4"},
		{Pipeline: "intransit", InsituNoSync: true, CompressInsitu: true, AsyncCheckpoint: true},
	}
	for _, s := range specs {
		n, err := s.Normalized()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		cfg, err := n.Config()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "v1 kind:%s exp:%s pipe:%s app:%s dev:%s case:%d seed:%d real:%d fio:%d faults:%q pcap:%g\n",
			n.Kind, n.Experiment, n.Pipeline, n.App, n.Device, n.Case, n.Seed, n.RealSubsteps, n.FioGiB, n.Faults, n.PowerCapWatts)
		buf.WriteString("cfg:")
		cfg.WriteCanonical(&buf)
		sum := sha256.Sum256(buf.Bytes())
		want := hex.EncodeToString(sum[:])

		got, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("spec %+v: digest %s != fmt reference %s", s, got, want)
		}
		gotN, err := n.DigestNormalized()
		if err != nil {
			t.Fatal(err)
		}
		if gotN != want {
			t.Errorf("spec %+v: DigestNormalized %s != fmt reference %s", s, gotN, want)
		}
	}
}
