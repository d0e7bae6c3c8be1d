package service

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
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

// TestDigestSensitivity: every spec field changes the address. The
// map is keyed by JSON field name and must name every field of
// JobSpec, so a field added later without a token in the digest line
// fails here.
func TestDigestSensitivity(t *testing.T) {
	pipe := JobSpec{Pipeline: "insitu", Case: 3}
	exp := JobSpec{Experiment: "table3"}
	variants := map[string][2]JobSpec{ // field → {base, variant}
		"kind":             {pipe, {Experiment: "fig4"}},
		"experiment":       {exp, {Experiment: "fig4"}},
		"pipeline":         {pipe, {Pipeline: "post", Case: 3}},
		"app":              {pipe, {Pipeline: "insitu", Case: 3, App: "ocean"}},
		"device":           {pipe, {Pipeline: "insitu", Case: 3, Device: "ssd"}},
		"case":             {pipe, {Pipeline: "insitu", Case: 2}},
		"seed":             {pipe, {Pipeline: "insitu", Case: 3, Seed: 7}},
		"real_substeps":    {pipe, {Pipeline: "insitu", Case: 3, RealSubsteps: 2}},
		"fio_gib":          {exp, {Experiment: "table3", FioGiB: 1}},
		"faults":           {pipe, {Pipeline: "insitu", Case: 3, Faults: "bitrot=1e-9"}},
		"power_cap_watts":  {pipe, {Pipeline: "insitu", Case: 3, PowerCapWatts: 80}},
		"insitu_nosync":    {pipe, {Pipeline: "insitu", Case: 3, InsituNoSync: true}},
		"compress_insitu":  {pipe, {Pipeline: "insitu", Case: 3, CompressInsitu: true}},
		"async_checkpoint": {pipe, {Pipeline: "insitu", Case: 3, AsyncCheckpoint: true}},
		"cinema_variants":  {pipe, {Pipeline: "insitu", Case: 3, CinemaVariants: 2}},
	}
	fields := reflect.TypeOf(JobSpec{})
	for i := 0; i < fields.NumField(); i++ {
		name, _, _ := strings.Cut(fields.Field(i).Tag.Get("json"), ",")
		if _, ok := variants[name]; !ok {
			t.Errorf("JobSpec field %q has no digest-sensitivity variant", name)
		}
	}
	if len(variants) != fields.NumField() {
		t.Errorf("%d variants for %d JobSpec fields", len(variants), fields.NumField())
	}
	for name, v := range variants {
		base, err := v[0].Digest()
		if err != nil {
			t.Fatalf("%s: base Digest: %v", name, err)
		}
		d, err := v[1].Digest()
		if err != nil {
			t.Fatalf("%s: Digest: %v", name, err)
		}
		if d == base {
			t.Errorf("changing %s did not change the digest", name)
		}
	}
}

// TestDigestMatchesFmtReference pins the job digest to its reference
// format: the exact v2 line it hashes, spelled out as literal strings
// rather than re-derived. Any change to the line re-keys every stored
// report, and so does bumping its version; both are deliberate acts,
// never a side effect.
func TestDigestMatchesFmtReference(t *testing.T) {
	pins := []struct {
		spec     JobSpec
		preimage string
	}{
		{
			JobSpec{Experiment: "fig4"},
			`v2 kind:experiment exp:fig4 pipe: app: dev: case:0 seed:1 real:16 fio:4 faults:"" pcap:0 nosync:false compress:false async:false cinema:0` + "\n",
		},
		{
			JobSpec{Pipeline: "insitu", Case: 3},
			`v2 kind:pipeline exp: pipe:insitu app:heat dev:hdd case:3 seed:1 real:16 fio:4 faults:"" pcap:0 nosync:false compress:false async:false cinema:0` + "\n",
		},
		{
			JobSpec{
				Pipeline: "hybrid", App: "ocean", Device: "nvram", Case: 2, Seed: 7, RealSubsteps: 4,
				Faults: "bitrot=0.01,readerr=0.001", PowerCapWatts: 42.5,
				InsituNoSync: true, CompressInsitu: true, AsyncCheckpoint: true, CinemaVariants: 3,
			},
			`v2 kind:pipeline exp: pipe:hybrid app:ocean dev:nvram case:2 seed:7 real:4 fio:4 faults:"bitrot=0.01,readerr=0.001" pcap:42.5 nosync:true compress:true async:true cinema:3` + "\n",
		},
	}
	for _, p := range pins {
		sum := sha256.Sum256([]byte(p.preimage))
		want := hex.EncodeToString(sum[:])
		got, err := p.spec.Digest()
		if err != nil {
			t.Fatalf("%+v: %v", p.spec, err)
		}
		if got != want {
			t.Errorf("spec %+v: digest %s, want sha256 of %q (%s)", p.spec, got, p.preimage, want)
		}
	}
}
