package viz

import (
	"image/color"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func TestColormapEndpoints(t *testing.T) {
	cm := Grayscale()
	if got := cm.Map(0); got != (color.RGBA{0, 0, 0, 255}) {
		t.Errorf("Map(0) = %v", got)
	}
	if got := cm.Map(1); got != (color.RGBA{255, 255, 255, 255}) {
		t.Errorf("Map(1) = %v", got)
	}
}

func TestColormapClamps(t *testing.T) {
	cm := Inferno()
	if cm.Map(-5) != cm.Map(0) || cm.Map(7) != cm.Map(1) {
		t.Error("out-of-range values not clamped")
	}
}

func TestColormapMidpointInterpolates(t *testing.T) {
	cm := Grayscale()
	got := cm.Map(0.5)
	if got.R < 126 || got.R > 129 || got.R != got.G || got.G != got.B {
		t.Errorf("Map(0.5) = %v, want mid-gray", got)
	}
}

func TestColormapMonotoneGray(t *testing.T) {
	cm := Grayscale()
	prev := -1
	for i := 0; i <= 100; i++ {
		c := cm.Map(float64(i) / 100)
		if int(c.R) < prev {
			t.Fatalf("gray ramp not monotone at %d", i)
		}
		prev = int(c.R)
	}
}

func TestColormapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-stop colormap did not panic")
		}
	}()
	NewColormap("bad", []float64{0}, []color.RGBA{{}})
}

func TestColormapNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Map(NaN) did not panic")
		}
	}()
	Inferno().Map(math.NaN())
}

func TestByName(t *testing.T) {
	for _, name := range []string{"inferno", "coolwarm", "gray"} {
		cm, err := ByName(name)
		if err != nil || cm.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, cm, err)
		}
	}
	if _, err := ByName("plasma"); err == nil {
		t.Error("unknown colormap did not error")
	}
}

func hotSpotGrid() *field.Grid {
	g := field.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			dx, dy := float64(x-16), float64(y-16)
			g.Set(x, y, 100*math.Exp(-(dx*dx+dy*dy)/40))
		}
	}
	return g
}

func TestRenderDimensionsAndStats(t *testing.T) {
	img, stats := Render(hotSpotGrid(), RenderOptions{Width: 64, Height: 48})
	if img.Bounds().Dx() != 64 || img.Bounds().Dy() != 48 {
		t.Errorf("bounds = %v", img.Bounds())
	}
	if stats.Pixels != 64*48 {
		t.Errorf("Pixels = %d, want %d", stats.Pixels, 64*48)
	}
}

func TestRenderHotCenterBrighterThanEdge(t *testing.T) {
	img, _ := Render(hotSpotGrid(), RenderOptions{Width: 64, Height: 64, Colormap: Grayscale()})
	center := img.RGBAAt(32, 32)
	corner := img.RGBAAt(1, 1)
	if center.R <= corner.R {
		t.Errorf("center %v not brighter than corner %v", center, corner)
	}
}

func TestRenderFlatFieldDoesNotDivideByZero(t *testing.T) {
	g := field.New(8, 8)
	g.Fill(42)
	img, _ := Render(g, RenderOptions{Width: 16, Height: 16})
	if img == nil {
		t.Fatal("nil image")
	}
}

func TestRenderExplicitScale(t *testing.T) {
	g := field.New(8, 8)
	g.Fill(50)
	img, _ := Render(g, RenderOptions{Width: 4, Height: 4, Colormap: Grayscale(), Lo: 0, Hi: 100})
	c := img.RGBAAt(2, 2)
	if c.R < 126 || c.R > 129 {
		t.Errorf("50/100 maps to %v, want mid-gray", c)
	}
}

func TestRenderBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size render did not panic")
		}
	}()
	Render(hotSpotGrid(), RenderOptions{Width: 0, Height: 10})
}

func TestRenderIsolinesDrawOverlay(t *testing.T) {
	opts := RenderOptions{Width: 64, Height: 64, Colormap: Grayscale(), Isolines: []float64{50}}
	img, stats := Render(hotSpotGrid(), opts)
	if stats.Segments == 0 || stats.ContourCells != 31*31 {
		t.Errorf("stats = %+v", stats)
	}
	// Some pixel near the 50-level ring must be pure white (overlay).
	found := false
	for y := 0; y < 64 && !found; y++ {
		for x := 0; x < 64; x++ {
			c := img.RGBAAt(x, y)
			if c == (color.RGBA{255, 255, 255, 255}) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no isoline pixels drawn")
	}
}

func TestMarchingSquaresCircleLevelSet(t *testing.T) {
	segs, cells := MarchingSquares(hotSpotGrid(), 50)
	if cells != 31*31 {
		t.Errorf("cells = %d", cells)
	}
	if len(segs) < 8 {
		t.Fatalf("only %d segments for a circular level set", len(segs))
	}
	// Every crossing point must lie close to the analytic circle
	// r = sqrt(40 * ln(100/50)) around (16,16).
	want := math.Sqrt(40 * math.Ln2)
	for _, s := range segs {
		for _, pt := range [][2]float64{{s.X0, s.Y0}, {s.X1, s.Y1}} {
			r := math.Hypot(pt[0]-16, pt[1]-16)
			if math.Abs(r-want) > 0.75 {
				t.Fatalf("contour point (%.2f,%.2f) at radius %.2f, want ~%.2f", pt[0], pt[1], r, want)
			}
		}
	}
}

func TestMarchingSquaresUniformFieldEmpty(t *testing.T) {
	g := field.New(16, 16)
	g.Fill(10)
	if segs, _ := MarchingSquares(g, 50); len(segs) != 0 {
		t.Errorf("uniform field produced %d segments", len(segs))
	}
	if segs, _ := MarchingSquares(g, 5); len(segs) != 0 {
		t.Errorf("all-above field produced %d segments", len(segs))
	}
}

// Property: every marching-squares segment endpoint lies on a cell edge
// within the grid, for random fields and levels.
func TestMarchingSquaresEndpointsOnEdgesProperty(t *testing.T) {
	f := func(vals []uint8, levelRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		g := field.New(9, 9)
		for i := range g.Data {
			g.Data[i] = float64(vals[i%len(vals)])
		}
		level := float64(levelRaw)
		segs, _ := MarchingSquares(g, level)
		for _, s := range segs {
			for _, pt := range [][2]float64{{s.X0, s.Y0}, {s.X1, s.Y1}} {
				x, y := pt[0], pt[1]
				if x < 0 || x > 8 || y < 0 || y > 8 {
					return false
				}
				onGridX := x == math.Trunc(x)
				onGridY := y == math.Trunc(y)
				if !onGridX && !onGridY {
					return false // crossing must be on a horizontal or vertical edge
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPNGRoundTrip decodes encoded frames and compares every pixel:
// an opaque rendered frame (colour type 2) and the same frame with a
// translucent diagonal line drawn over it (colour type 6), whose
// partial-alpha pixels must decode un-premultiplied. A wrong filter
// residual that still decodes fails here.
func TestPNGRoundTrip(t *testing.T) {
	for _, line := range []color.RGBA{{}, {R: 128, G: 64, B: 0, A: 128}} {
		img, _ := Render(hotSpotGrid(), RenderOptions{Width: 32, Height: 32, Isolines: []float64{50}})
		if line.A != 0 {
			drawLine(img, 0, 0, 31, 31, line)
		}
		if img.Opaque() != (line.A == 0) {
			t.Fatalf("isoline %v: frame opaque = %v", line, img.Opaque())
		}
		data, err := EncodePNG(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 100 {
			t.Errorf("PNG suspiciously small: %d bytes", len(data))
		}
		back, err := DecodePNG(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Bounds() != img.Bounds() {
			t.Fatalf("round-trip bounds %v != %v", back.Bounds(), img.Bounds())
		}
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				want := color.NRGBAModel.Convert(img.RGBAAt(x, y))
				if got := color.NRGBAModel.Convert(back.At(x, y)); got != want {
					t.Fatalf("isoline %v: pixel (%d,%d) decodes to %v, want %v", line, x, y, got, want)
				}
			}
		}
	}
}

func BenchmarkRender512(b *testing.B) {
	g := hotSpotGrid()
	opts := RenderOptions{Width: 512, Height: 512, Isolines: []float64{25, 50, 75}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, _ := Render(g, opts)
		// Hand the frame back like the pipelines do — otherwise the bench
		// charges a fresh 1 MiB raster to every iteration and measures the
		// allocator, not the renderer.
		ReleaseFrame(img)
	}
}

// BenchmarkRenderFrame renders pipeline frames: each op renders one
// of eight 128² solver fields, heat and ocean after 16, 80, 320 and 800
// steps in turn, at 512×512 with the app's colormap and isolines.
// BenchmarkRender512's 32×32 hot spot is no such frame.
func BenchmarkRenderFrame(b *testing.B) {
	type frame struct {
		g    *field.Grid
		opts RenderOptions
	}
	var frames []frame
	for _, steps := range []int{16, 80, 320, 800} {
		for _, app := range []string{"heat", "ocean"} {
			g, opts := solverField(app, steps)
			frames = append(frames, frame{g, opts})
		}
	}
	// The solver runs above may have emptied the pools; render every
	// frame once, so the loop measures rendering, not the raster and
	// the contour buffer growing.
	for _, f := range frames {
		img, _ := Render(f.g, f.opts)
		ReleaseFrame(img)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		img, _ := Render(f.g, f.opts)
		ReleaseFrame(img)
	}
}

// pngSink keeps BenchmarkEncodePNG512's result live.
var pngSink []byte

// BenchmarkEncodePNG512 encodes one annotated 512×512 heat frame per
// op, the visualization stage's encode.
func BenchmarkEncodePNG512(b *testing.B) { benchmarkEncodePNG(b, "heat") }

// BenchmarkEncodePNG512Ocean encodes one annotated 512×512 ocean frame
// per op, a busier frame than the heat one (about 180 KB of PNG against
// 98 KB).
func BenchmarkEncodePNG512Ocean(b *testing.B) { benchmarkEncodePNG(b, "ocean") }

func benchmarkEncodePNG(b *testing.B, app string) {
	img := solverFrame(app, 640)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if pngSink, err = EncodePNG(img); err != nil {
			b.Fatal(err)
		}
	}
}
