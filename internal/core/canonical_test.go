package core

import (
	"bytes"
	"fmt"
	"image/color"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/heat"
	"repro/internal/units"
)

// writeCanonicalReference is the fmt.Fprintf formulation AppendCanonical
// replaced, kept as the specification of the canonical bytes: the
// property test below asserts the strconv appender reproduces it
// byte-for-byte over randomized configs. heat.Params has since lost its
// Workers field, so heatWorkersV1 is spliced back where %+v printed it.
func writeCanonicalReference(w *bytes.Buffer, cfg AppConfig) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("v1\n")
	hp := strings.Replace(fmt.Sprintf("%+v", cfg.Heat), " Sources:[", heatWorkersV1+" Sources:[", 1)
	p("heat:%s\n", hp)
	p("substeps:%d real:%d\n", cfg.SubstepsPerIteration, cfg.RealSubsteps)
	p("payload ckpt:%d insitu:%d\n", cfg.CheckpointPayload, cfg.InsituPayload)
	p("render:%dx%d lo:%g hi:%g iso:%v isocolor:%v colormap:%t\n",
		cfg.Render.Width, cfg.Render.Height, cfg.Render.Lo, cfg.Render.Hi,
		cfg.Render.Isolines, cfg.Render.IsolineColor, cfg.Render.Colormap != nil)
	p("ckptpolicy:%d\n", cfg.CheckpointPolicy)
	p("knobs nosync:%t compress:%t cinema:%d async:%t retain:%t\n",
		cfg.InsituNoSync, cfg.CompressInsitu, cfg.CinemaVariants,
		cfg.AsyncCheckpoint, cfg.RetainFrames)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		p("faults:%+v\n", *cfg.Faults)
	} else {
		p("faults:off\n")
	}
	p("retry:%+v\n", cfg.Retry.WithDefaults())
	p("custom sim:%t store:%t\n", cfg.NewSimulator != nil, cfg.Store != nil)
}

// randomConfig perturbs the default config with randomized values that
// exercise every formatting path: negative, fractional, and large
// floats, empty and multi-element slices, pulsed sources, enabled and
// disabled faults, custom retry, and set/unset extension points.
func randomConfig(rng *rand.Rand) AppConfig {
	cfg := DefaultAppConfig()
	cfg.Heat.Alpha = rng.Float64() * 10
	cfg.Heat.DX = rng.Float64()*2 + 0.001
	cfg.Heat.DY = rng.Float64()*2 + 0.001
	cfg.Heat.DT = rng.Float64() * 1e-3
	cfg.Heat.BoundaryTemp = (rng.Float64() - 0.5) * 1e6
	cfg.Heat.InitialTemp = rng.NormFloat64() * 100
	cfg.Heat.Boundary = heat.BoundaryKind(rng.Intn(2))
	cfg.Heat.Sources = cfg.Heat.Sources[:0]
	for i, n := 0, rng.Intn(3); i < n; i++ {
		cfg.Heat.Sources = append(cfg.Heat.Sources, heat.Source{
			X0: rng.Intn(64), Y0: rng.Intn(64),
			X1: 64 + rng.Intn(64), Y1: 64 + rng.Intn(64),
			Temp:        rng.Float64() * 1e4,
			PeriodSteps: uint64(rng.Intn(100)),
			Duty:        rng.Float64(),
		})
	}
	cfg.SubstepsPerIteration = rng.Intn(4096) + 1
	cfg.RealSubsteps = rng.Intn(cfg.SubstepsPerIteration) + 1
	cfg.CheckpointPayload = units.Bytes(rng.Int63n(1 << 40))
	cfg.InsituPayload = units.Bytes(rng.Int63n(1 << 30))
	cfg.Render.Width = rng.Intn(2048) + 1
	cfg.Render.Height = rng.Intn(2048) + 1
	cfg.Render.Lo = rng.NormFloat64() * 1e3
	cfg.Render.Hi = cfg.Render.Lo + rng.Float64()*1e3
	cfg.Render.Isolines = cfg.Render.Isolines[:0]
	for i, n := 0, rng.Intn(4); i < n; i++ {
		cfg.Render.Isolines = append(cfg.Render.Isolines, rng.NormFloat64()*750)
	}
	if rng.Intn(2) == 0 {
		cfg.Render.Isolines = nil
	}
	cfg.Render.IsolineColor = color.RGBA{
		R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)),
		B: uint8(rng.Intn(256)), A: uint8(rng.Intn(256)),
	}
	cfg.InsituNoSync = rng.Intn(2) == 0
	cfg.CompressInsitu = rng.Intn(2) == 0
	cfg.AsyncCheckpoint = rng.Intn(2) == 0
	cfg.RetainFrames = rng.Intn(2) == 0
	cfg.CinemaVariants = rng.Intn(64)
	switch rng.Intn(3) {
	case 0:
		cfg.Faults = nil
	case 1:
		cfg.Faults = &fault.Config{} // disabled: prints as off
	default:
		cfg.Faults = &fault.Config{
			Seed:        rng.Uint64(),
			BitRot:      rng.Float64() * 0.01,
			ReadErr:     rng.Float64() * 0.01,
			WriteErr:    rng.Float64() * 0.01,
			Latency:     rng.Float64() * 0.01,
			Spike:       units.Seconds(rng.Float64()),
			Drop:        rng.Float64() * 0.01,
			DropTimeout: units.Seconds(rng.Float64() * 2),
		}
	}
	if rng.Intn(2) == 0 {
		cfg.Retry = RetryPolicy{MaxAttempts: rng.Intn(10), Backoff: units.Seconds(rng.Float64())}
	}
	if rng.Intn(2) == 0 {
		cfg.NewSimulator = func() Simulator { return nil }
	}
	return cfg
}

// TestAppendCanonicalMatchesFmt asserts the strconv-based canonical
// appender is byte-identical to the fmt reference — the property the
// job-digest cache keys depend on.
func TestAppendCanonicalMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		cfg := randomConfig(rng)
		var want bytes.Buffer
		writeCanonicalReference(&want, cfg)
		got := cfg.AppendCanonical(nil)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("config %d: canonical form diverged\n got: %q\nwant: %q", i, got, want.Bytes())
		}
		var viaWriter bytes.Buffer
		cfg.WriteCanonical(&viaWriter)
		if !bytes.Equal(viaWriter.Bytes(), want.Bytes()) {
			t.Fatalf("config %d: WriteCanonical diverged from reference", i)
		}
	}
}

func BenchmarkAppendCanonical(b *testing.B) {
	cfg := DefaultAppConfig()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cfg.AppendCanonical(buf[:0])
	}
}
