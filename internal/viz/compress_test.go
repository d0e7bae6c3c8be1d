package viz

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/heat"
	"repro/internal/ocean"
)

func TestCompressRoundTrip(t *testing.T) {
	g := hotSpotGrid()
	blob, err := CompressField(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecompressField(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.NX != g.NX || back.NY != g.NY {
		t.Fatalf("dims %dx%d", back.NX, back.NY)
	}
	lo, hi := g.MinMax()
	tol := (hi - lo) / 65535 * 1.01
	for i := range g.Data {
		if math.Abs(back.Data[i]-g.Data[i]) > tol {
			t.Fatalf("cell %d off by %v (> quantization step)", i, math.Abs(back.Data[i]-g.Data[i]))
		}
	}
}

func TestCompressionRatioOnSmoothField(t *testing.T) {
	// A real 128x128 solver field (what the pipelines checkpoint)
	// delta-compresses ~3x.
	s := heat.NewSolver(heat.DefaultParams())
	s.Step(500)
	ratio, err := CompressionRatio(s.Field())
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 2 {
		t.Errorf("solver field compressed only %.2fx, want >= 2", ratio)
	}
}

func TestCompressionRatioOnNoise(t *testing.T) {
	g := field.New(64, 64)
	x := uint64(12345)
	for i := range g.Data {
		x = x*6364136223846793005 + 1442695040888963407
		g.Data[i] = float64(x >> 40)
	}
	ratio, err := CompressionRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	// Random data barely compresses.
	if ratio > 1.3 {
		t.Errorf("noise compressed %.2fx, suspicious", ratio)
	}
}

func TestCompressFlatField(t *testing.T) {
	g := field.New(32, 32)
	g.Fill(42)
	blob, err := CompressField(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecompressField(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(5, 5) != 42 {
		t.Errorf("flat field value = %v", back.At(5, 5))
	}
	ratio, _ := CompressionRatio(g)
	if ratio < 20 {
		t.Errorf("flat field compressed only %.1fx", ratio)
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := DecompressField([]byte{1, 2, 3}); err == nil {
		t.Error("garbage decompressed without error")
	}
}

func TestCompressedRenderVisuallyClose(t *testing.T) {
	g := hotSpotGrid()
	blob, _ := CompressField(g)
	back, _ := DecompressField(blob)
	opts := RenderOptions{Width: 128, Height: 128, Lo: 0, Hi: 100}
	a, _ := Render(g, opts)
	b, _ := Render(back, opts)
	if p := PSNR(a, b); p < 45 {
		t.Errorf("16-bit quantization PSNR = %.1f dB, want >= 45 (visually lossless)", p)
	}
}

// TestCompressFieldMatchesFlate pins CompressField's blob to
// compress/flate's BestSpeed bytes: inflated and deflated again by
// compress/flate, it must come back unchanged. The fields are heat and
// ocean solver fields at several ages (a 128×128 field quantizes to 32
// KiB, 512×512 to eight 64 KiB blocks), noise and a flat field.
func TestCompressFieldMatchesFlate(t *testing.T) {
	var grids []*field.Grid
	for _, steps := range []int{0, 50, 500} {
		h := heat.NewSolver(heat.DefaultParams())
		h.Step(steps)
		o := ocean.NewSolver(ocean.DefaultParams())
		o.Step(steps)
		grids = append(grids, h.Field(), o.Field())
	}
	big := heat.DefaultParams()
	big.NX, big.NY = 512, 512
	bs := heat.NewSolver(big)
	bs.Step(50)
	grids = append(grids, bs.Field())
	noise := field.New(200, 200)
	x := uint64(7)
	for i := range noise.Data {
		x = x*6364136223846793005 + 1442695040888963407
		noise.Data[i] = float64(x >> 40)
	}
	flat := field.New(50, 50)
	flat.Fill(3)
	grids = append(grids, noise, flat)
	for i, g := range grids {
		got, err := CompressField(g)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(got)))
		if err != nil {
			t.Fatalf("grid %d: inflate: %v", i, err)
		}
		var want bytes.Buffer
		fw, err := flate.NewWriter(&want, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(raw)
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("grid %d (%dx%d): %d bytes, compress/flate %d", i, g.NX, g.NY, len(got), want.Len())
		}
	}
}

// fieldSink keeps BenchmarkCompressField's result live.
var fieldSink []byte

// BenchmarkCompressField compresses one 128×128 heat field per op, the
// in-situ reduction path's payload.
func BenchmarkCompressField(b *testing.B) {
	s := heat.NewSolver(heat.DefaultParams())
	s.Step(500)
	g := s.Field()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if fieldSink, err = CompressField(g); err != nil {
			b.Fatal(err)
		}
	}
}
