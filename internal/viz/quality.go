package viz

import (
	"fmt"
	"image"
	"math"

	"repro/internal/field"
)

// Downsample returns the field sampled at every k-th cell in each
// dimension — the in-situ data-sampling technique of Woodring et al.
// [21]: ship a fraction 1/k² of the data, accept some visual error.
func Downsample(g *field.Grid, k int) *field.Grid {
	if k <= 0 {
		panic(fmt.Sprintf("viz: downsample factor %d must be positive", k))
	}
	nx := (g.NX + k - 1) / k
	ny := (g.NY + k - 1) / k
	if nx < 2 || ny < 2 {
		panic(fmt.Sprintf("viz: downsample factor %d collapses the %dx%d grid", k, g.NX, g.NY))
	}
	out := field.New(nx, ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			out.Set(x, y, g.At(x*k, y*k))
		}
	}
	return out
}

// MSE returns the mean squared error between two equal-sized images,
// averaged over the RGB channels (alpha ignored).
func MSE(a, b *image.RGBA) float64 {
	if a.Bounds() != b.Bounds() {
		panic("viz: MSE requires equal image bounds")
	}
	var sum float64
	n := 0
	bounds := a.Bounds()
	for y := bounds.Min.Y; y < bounds.Max.Y; y++ {
		for x := bounds.Min.X; x < bounds.Max.X; x++ {
			ca := a.RGBAAt(x, y)
			cb := b.RGBAAt(x, y)
			dr := float64(ca.R) - float64(cb.R)
			dg := float64(ca.G) - float64(cb.G)
			db := float64(ca.B) - float64(cb.B)
			sum += float64(dr*dr) + float64(dg*dg) + float64(db*db) // no fused multiply-add
			n += 3
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PSNR returns the peak signal-to-noise ratio between two images in
// decibels; +Inf for identical images. Above ~40 dB differences are
// visually negligible; below ~30 dB they are obvious.
func PSNR(a, b *image.RGBA) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}
