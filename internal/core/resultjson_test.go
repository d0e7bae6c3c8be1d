package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/node"
)

// TestEncodeJSONDeterministic runs the post-processing and in-situ
// pipelines of every app twice and requires byte-identical JSON — the
// property the service's content-addressed report cache depends on.
// Frames, checkpoints and timings all reach the encoding, so this is
// also the determinism check of full runs that holds under -race (the
// golden suites skip there).
func TestEncodeJSONDeterministic(t *testing.T) {
	cs := CaseStudy{Name: "det", Iterations: 6, IOInterval: 2}
	var a string
	for _, app := range AppFlags() {
		for _, p := range []Pipeline{PostProcessing, InSitu} {
			encode := func() string {
				cfg := testConfig()
				if err := ConfigureApp(&cfg, app); err != nil {
					t.Fatalf("ConfigureApp(%s): %v", app, err)
				}
				res := Run(node.New(node.SandyBridge(), 1), p, cs, cfg)
				var buf bytes.Buffer
				if err := res.EncodeJSON(&buf); err != nil {
					t.Fatalf("EncodeJSON: %v", err)
				}
				return buf.String()
			}
			a = encode()
			if b := encode(); a != b {
				t.Fatalf("%s/%s: identical runs encoded differently:\n%s\n---\n%s", app, p, a, b)
			}
		}
	}
	if !strings.HasSuffix(a, "\n") {
		t.Error("encoding misses the trailing newline")
	}

	// Round-trip the scalar surface of the last (in-situ) run.
	var m map[string]any
	if err := json.Unmarshal([]byte(a), &m); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if m["pipeline"] != "in-situ" {
		t.Errorf("pipeline encoded as %v, want \"in-situ\"", m["pipeline"])
	}
	if _, ok := m["stage_seconds"].(map[string]any); !ok {
		t.Errorf("stage_seconds missing or mistyped: %v", m["stage_seconds"])
	}
	for _, excluded := range []string{"Profile", "FramePNGs"} {
		if _, ok := m[excluded]; ok {
			t.Errorf("bulk field %s leaked into the JSON encoding", excluded)
		}
	}
}

func TestPipelineJSONRoundTrip(t *testing.T) {
	for _, p := range Pipelines() {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal %v: %v", p, err)
		}
		var back Pipeline
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != p {
			t.Errorf("round trip %v -> %s -> %v", p, b, back)
		}
		// The flag form is accepted too.
		var fromFlag Pipeline
		if err := json.Unmarshal([]byte(`"`+p.Flag()+`"`), &fromFlag); err != nil || fromFlag != p {
			t.Errorf("flag form %q: %v %v", p.Flag(), fromFlag, err)
		}
	}
	var bad Pipeline
	if err := json.Unmarshal([]byte(`"warp-drive"`), &bad); err == nil {
		t.Error("unknown pipeline name unmarshalled without error")
	}
}

func TestPresets(t *testing.T) {
	for _, d := range DeviceFlags() {
		if _, err := PlatformByFlag(d); err != nil {
			t.Errorf("device %q: %v", d, err)
		}
	}
	if _, err := PlatformByFlag("floppy"); err == nil {
		t.Error("unknown device resolved")
	}
	for _, a := range AppFlags() {
		cfg := DefaultAppConfig()
		if err := ConfigureApp(&cfg, a); err != nil {
			t.Errorf("app %q: %v", a, err)
		}
	}
	cfg := DefaultAppConfig()
	if err := ConfigureApp(&cfg, "weather"); err == nil {
		t.Error("unknown app configured")
	}
	ocean := DefaultAppConfig()
	if err := ConfigureApp(&ocean, "ocean"); err != nil {
		t.Fatal(err)
	}
	if ocean.NewSimulator == nil {
		t.Error("ocean app did not install a simulator")
	}
}
