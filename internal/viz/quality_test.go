package viz

import (
	"math"
	"testing"

	"repro/internal/field"
)

func TestDownsampleDimensions(t *testing.T) {
	g := field.New(128, 96)
	d := Downsample(g, 4)
	if d.NX != 32 || d.NY != 24 {
		t.Errorf("downsampled dims = %dx%d", d.NX, d.NY)
	}
}

func TestDownsamplePicksEveryKth(t *testing.T) {
	g := field.New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			g.Set(x, y, float64(y*8+x))
		}
	}
	d := Downsample(g, 2)
	if d.At(1, 1) != g.At(2, 2) {
		t.Errorf("d(1,1) = %v, want g(2,2) = %v", d.At(1, 1), g.At(2, 2))
	}
}

func TestDownsampleIdentity(t *testing.T) {
	g := hotSpotGrid()
	d := Downsample(g, 1)
	for i := range g.Data {
		if d.Data[i] != g.Data[i] {
			t.Fatal("factor-1 downsample changed data")
		}
	}
}

func TestDownsampleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("factor 0 did not panic")
		}
	}()
	Downsample(field.New(8, 8), 0)
}

func TestPSNRIdenticalIsInf(t *testing.T) {
	img, _ := Render(hotSpotGrid(), RenderOptions{Width: 32, Height: 32})
	if !math.IsInf(PSNR(img, img), 1) {
		t.Error("identical images not +Inf PSNR")
	}
}

func TestPSNRDegradesWithSampling(t *testing.T) {
	g := hotSpotGrid()
	opts := RenderOptions{Width: 128, Height: 128, Lo: 0, Hi: 100}
	ref, _ := Render(g, opts)
	prev := math.Inf(1)
	for _, k := range []int{2, 4, 8} {
		img, _ := Render(Downsample(g, k), opts)
		p := PSNR(ref, img)
		if p >= prev {
			t.Errorf("PSNR did not degrade at factor %d: %v >= %v", k, p, prev)
		}
		if p < 10 {
			t.Errorf("PSNR at factor %d implausibly low: %v", k, p)
		}
		prev = p
	}
	// Mild sampling of a smooth field should stay reasonable.
	img2, _ := Render(Downsample(g, 2), opts)
	if p := PSNR(ref, img2); p < 25 {
		t.Errorf("factor-2 PSNR = %.1f dB, want >= 25 (smooth field)", p)
	}
}

func TestMSEBoundsAndSymmetry(t *testing.T) {
	g := hotSpotGrid()
	opts := RenderOptions{Width: 64, Height: 64, Lo: 0, Hi: 100}
	a, _ := Render(g, opts)
	b, _ := Render(Downsample(g, 4), opts)
	ab, ba := MSE(a, b), MSE(b, a)
	if ab != ba {
		t.Errorf("MSE not symmetric: %v vs %v", ab, ba)
	}
	if ab < 0 || ab > 255*255 {
		t.Errorf("MSE out of range: %v", ab)
	}
}

func TestMSEDifferentBoundsPanics(t *testing.T) {
	a, _ := Render(hotSpotGrid(), RenderOptions{Width: 32, Height: 32})
	b, _ := Render(hotSpotGrid(), RenderOptions{Width: 16, Height: 16})
	defer func() {
		if recover() == nil {
			t.Error("mismatched bounds did not panic")
		}
	}()
	MSE(a, b)
}
