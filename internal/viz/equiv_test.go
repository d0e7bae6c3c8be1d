package viz

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/heat"
	"repro/internal/ocean"
)

// referenceMap is Colormap.Map as written before the lookup-table
// acceleration: binary search over the stops, then lerp8. The
// accelerated Map must agree bit for bit on every input.
func referenceMap(c *Colormap, t float64) color.RGBA {
	if t <= 0 {
		return c.colors[0]
	}
	if t >= 1 {
		return c.colors[len(c.colors)-1]
	}
	i := sort.SearchFloat64s(c.stops, t)
	lo, hi := c.stops[i-1], c.stops[i]
	f := (t - lo) / (hi - lo)
	a, b := c.colors[i-1], c.colors[i]
	return color.RGBA{
		R: lerp8(a.R, b.R, f),
		G: lerp8(a.G, b.G, f),
		B: lerp8(a.B, b.B, f),
		A: 255,
	}
}

func lerp8(a, b uint8, f float64) uint8 {
	return uint8(float64(a) + f*(float64(b)-float64(a)) + 0.5)
}

// randomColors returns n random opaque colors.
func randomColors(rng *rand.Rand, n int) []color.RGBA {
	colors := make([]color.RGBA, n)
	for i := range colors {
		colors[i] = color.RGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), 255}
	}
	return colors
}

// denseMap has stops closer together than a bucket and a translucent
// first color, which only the t <= 0 clamp may return.
func denseMap() *Colormap {
	stops := []float64{0, 0.001, 0.002, 0.1, 0.10001, 0.5, 0.73, 0.74, 0.999, 1}
	colors := randomColors(rand.New(rand.NewSource(3)), len(stops))
	colors[0].A = 128
	return NewColormap("dense", stops, colors)
}

// manyStopsMap has 300 irregular stops, so mixed entries hold indexes
// above 255.
func manyStopsMap() *Colormap {
	rng := rand.New(rand.NewSource(5))
	stops := make([]float64, 300)
	for i := 1; i < len(stops)-1; i++ {
		stops[i] = rng.Float64()
	}
	stops[len(stops)-1] = 1
	sort.Float64s(stops)
	return NewColormap("many", stops, randomColors(rng, len(stops)))
}

// spikeBucket is the bucket spikeMap hides its spike in.
const spikeBucket = 5000

// spikeMap puts three stops inside one bucket, colored X, Y, X over an
// X background: both ends of the bucket map to X while its middle
// reaches Y, so only the segment comparison marks it mixed.
func spikeMap() *Colormap {
	base := float64(spikeBucket) / tableSize
	w := 1.0 / tableSize
	x, y := color.RGBA{40, 90, 160, 255}, color.RGBA{250, 20, 5, 255}
	return NewColormap("spike",
		[]float64{0, base + w/4, base + w/2, base + 3*w/4, 1},
		[]color.RGBA{x, x, y, x, x})
}

// bucketEnds returns the smallest and largest t in (0, 1) of bucket k.
func bucketEnds(k int) (lo, hi float64) {
	lo = float64(k) / tableSize
	if k == 0 {
		lo = math.SmallestNonzeroFloat64
	}
	return lo, math.Nextafter(float64(k+1)/tableSize, 0)
}

// TestColormapTableExact checks every bucket of the colour table. A
// pure entry must be the reference color at both ends of its bucket
// and at random t inside; a mixed entry must hold the segment search's
// answer for the bucket's smallest t.
func TestColormapTableExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, cm := range []*Colormap{Inferno(), CoolWarm(), Grayscale(), denseMap(), manyStopsMap(), spikeMap()} {
		pure := 0
		for k, e := range cm.table {
			lo, hi := bucketEnds(k)
			if e>>24 != 0 {
				pure++
				for _, v := range []float64{lo, hi, lo + rng.Float64()*(hi-lo), lo + rng.Float64()*(hi-lo)} {
					if want := referenceMap(cm, v); e != pack(want) {
						t.Fatalf("%s: bucket %d is pure %#08x, but t = %v maps to %v", cm.Name(), k, e, v, want)
					}
				}
			} else if want := max(sort.SearchFloat64s(cm.stops, lo), 1); int(e) != want {
				t.Fatalf("%s: mixed bucket %d holds index %d, want %d", cm.Name(), k, e, want)
			}
		}
		switch cm.Name() {
		case "inferno", "coolwarm", "gray":
			// The render's speed rests on most buckets being one load.
			if pure < tableSize*9/10 {
				t.Errorf("%s: only %d of %d buckets are pure", cm.Name(), pure, tableSize)
			}
		case "spike":
			if e := cm.table[spikeBucket]; e>>24 != 0 {
				t.Errorf("spike bucket is pure %#08x; its middle maps to %v", e, cm.Map(cm.stops[2]))
			}
		}
	}
}

// TestMapMatchesReference exercises the table-driven Map against the
// binary-search reference over randomized inputs, exact stop values,
// and every bucket edge with its two float neighbours — the places an
// off-by-one in the table would surface.
func TestMapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cm := range []*Colormap{Inferno(), CoolWarm(), Grayscale(), denseMap(), manyStopsMap(), spikeMap()} {
		check := func(v float64) {
			t.Helper()
			if got, want := cm.Map(v), referenceMap(cm, v); got != want {
				t.Fatalf("%s: Map(%v) = %v, reference %v", cm.Name(), v, got, want)
			}
		}
		for i := 0; i < 100000; i++ {
			check(rng.Float64()*1.2 - 0.1)
		}
		for _, s := range cm.stops {
			check(math.Nextafter(s, -1))
			check(s)
			check(math.Nextafter(s, 2))
		}
		for k := 0; k <= tableSize; k++ {
			v := float64(k) / tableSize
			check(math.Nextafter(v, -1))
			check(v)
			check(math.Nextafter(v, 2))
		}
	}
}

// referenceRender is Render as written before the colour table: a
// per-pixel bilinear resample in the same evaluation order, then
// referenceMap, then the isoline overlay.
func referenceRender(g *field.Grid, opts RenderOptions) *image.RGBA {
	cm := opts.Colormap
	if cm == nil {
		cm = Inferno()
	}
	lo, hi := opts.Lo, opts.Hi
	if lo == hi {
		lo, hi = g.MinMax()
	}
	// A flat field takes the first colour everywhere.
	inv := 0.0
	if lo != hi {
		inv = 1 / (hi - lo)
	}
	img := image.NewRGBA(image.Rect(0, 0, opts.Width, opts.Height))
	sx := float64(g.NX-1) / float64(max(opts.Width-1, 1))
	sy := float64(g.NY-1) / float64(max(opts.Height-1, 1))
	for py := 0; py < opts.Height; py++ {
		fy := float64(py) * sy
		y0 := min(int(fy), g.NY-2)
		wy := fy - float64(y0)
		for px := 0; px < opts.Width; px++ {
			fx := float64(px) * sx
			x0 := min(int(fx), g.NX-2)
			wx := fx - float64(x0)
			v := (1-wx)*(1-wy)*g.At(x0, y0) +
				wx*(1-wy)*g.At(x0+1, y0) +
				(1-wx)*wy*g.At(x0, y0+1) +
				wx*wy*g.At(x0+1, y0+1)
			img.SetRGBA(px, py, referenceMap(cm, (v-lo)*inv))
		}
	}
	lineColor := opts.IsolineColor
	if lineColor.A == 0 {
		lineColor = color.RGBA{255, 255, 255, 255}
	}
	for _, level := range opts.Isolines {
		segs, _ := MarchingSquares(g, level)
		scaleX := float64(opts.Width-1) / float64(g.NX-1)
		scaleY := float64(opts.Height-1) / float64(g.NY-1)
		for _, s := range segs {
			drawLine(img,
				int(s.X0*scaleX+0.5), int(s.Y0*scaleY+0.5),
				int(s.X1*scaleX+0.5), int(s.Y1*scaleY+0.5),
				lineColor)
		}
	}
	return img
}

// TestRenderMatchesReference compares Render's raster byte for byte
// with the per-pixel reference, isolines off and on: heat and ocean
// fields at several ages under every built-in map, random fields with
// explicit scales narrower than the data (both clamps fire) and wider,
// a flat field, degenerate and odd sizes, a downsampling render, and
// the dense, many-stop and spike maps.
func TestRenderMatchesReference(t *testing.T) {
	check := func(name string, g *field.Grid, opts RenderOptions) {
		t.Helper()
		for _, iso := range [][]float64{nil, opts.Isolines} {
			o := opts
			o.Isolines = iso
			got, _ := Render(g, o)
			want := referenceRender(g, o)
			if !bytes.Equal(got.Pix, want.Pix) {
				i := 0
				for got.Pix[i] == want.Pix[i] {
					i++
				}
				t.Fatalf("%s (%dx%d, %s, isolines %v): pixel %d differs: got %v, reference %v",
					name, o.Width, o.Height, o.Colormap.Name(), iso, i/4, got.Pix[i&^3:i&^3+4], want.Pix[i&^3:i&^3+4])
			}
			ReleaseFrame(got)
		}
	}
	builtins := []*Colormap{Inferno(), CoolWarm(), Grayscale()}
	for _, steps := range []int{1, 80, 640} {
		hs := heat.NewSolver(heat.DefaultParams())
		hs.Step(steps)
		os := ocean.NewSolver(ocean.DefaultParams())
		os.Step(steps)
		for _, cm := range builtins {
			check("heat", hs.Field(), RenderOptions{Width: 512, Height: 512, Colormap: cm, Isolines: []float64{250, 500, 750}})
			check("ocean", os.Field(), RenderOptions{Width: 512, Height: 512, Colormap: cm, Isolines: []float64{0}})
		}
	}

	rng := rand.New(rand.NewSource(15))
	random := field.New(37, 23)
	for i := range random.Data {
		random.Data[i] = rng.NormFloat64()
	}
	flat := field.New(9, 9)
	flat.Fill(42)
	big := field.New(128, 128)
	for i := range big.Data {
		big.Data[i] = rng.Float64()
	}
	custom := []*Colormap{denseMap(), manyStopsMap(), spikeMap()}
	for _, cm := range append(builtins, custom...) {
		iso := []float64{-0.5, 0, 0.7}
		check("random", random, RenderOptions{Width: 200, Height: 150, Colormap: cm, Isolines: iso})
		check("random narrow", random, RenderOptions{Width: 200, Height: 150, Colormap: cm, Lo: -0.8, Hi: 0.9, Isolines: iso})
		check("random wide", random, RenderOptions{Width: 200, Height: 150, Colormap: cm, Lo: -20, Hi: 30, Isolines: iso})
		check("flat", flat, RenderOptions{Width: 16, Height: 16, Colormap: cm, Isolines: []float64{42}})
		for _, size := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {513, 3}} {
			check("random", random, RenderOptions{Width: size[0], Height: size[1], Colormap: cm, Isolines: iso})
		}
		check("downsample", big, RenderOptions{Width: 64, Height: 64, Colormap: cm, Isolines: []float64{0.5}})
	}

	// A field that sweeps t finely across the spike bucket, so the
	// spike's Y pixels appear in the frame.
	sweep := field.New(64, 2)
	base := float64(spikeBucket) / tableSize
	for x := 0; x < 64; x++ {
		v := base + float64(x-16)/(32*tableSize)
		sweep.Set(x, 0, v)
		sweep.Set(x, 1, v)
	}
	check("spike sweep", sweep, RenderOptions{Width: 631, Height: 2, Colormap: spikeMap(), Lo: 0, Hi: 1, Isolines: []float64{base}})
}

// referenceMarchingSquares is the cell scan as written before the
// table-driven restructuring: per-cell At loads and closure-built
// edge points. The rewritten scan must emit the identical segment
// sequence and cell count.
func referenceMarchingSquares(g *field.Grid, level float64) ([]Segment, int) {
	var segs []Segment
	cells := 0
	for y := 0; y < g.NY-1; y++ {
		for x := 0; x < g.NX-1; x++ {
			cells++
			tl := g.At(x, y)
			tr := g.At(x+1, y)
			br := g.At(x+1, y+1)
			bl := g.At(x, y+1)

			idx := 0
			if tl >= level {
				idx |= 8
			}
			if tr >= level {
				idx |= 4
			}
			if br >= level {
				idx |= 2
			}
			if bl >= level {
				idx |= 1
			}
			if idx == 0 || idx == 15 {
				continue
			}

			top := func() (float64, float64) { return float64(x) + frac(tl, tr, level), float64(y) }
			bottom := func() (float64, float64) { return float64(x) + frac(bl, br, level), float64(y + 1) }
			left := func() (float64, float64) { return float64(x), float64(y) + frac(tl, bl, level) }
			right := func() (float64, float64) { return float64(x + 1), float64(y) + frac(tr, br, level) }

			emit := func(ax, ay, bx, by float64) {
				segs = append(segs, Segment{ax, ay, bx, by})
			}
			switch idx {
			case 1, 14:
				ax, ay := left()
				bx, by := bottom()
				emit(ax, ay, bx, by)
			case 2, 13:
				ax, ay := bottom()
				bx, by := right()
				emit(ax, ay, bx, by)
			case 3, 12:
				ax, ay := left()
				bx, by := right()
				emit(ax, ay, bx, by)
			case 4, 11:
				ax, ay := top()
				bx, by := right()
				emit(ax, ay, bx, by)
			case 6, 9:
				ax, ay := top()
				bx, by := bottom()
				emit(ax, ay, bx, by)
			case 7, 8:
				ax, ay := left()
				bx, by := top()
				emit(ax, ay, bx, by)
			case 5:
				if (tl+tr+br+bl)/4 >= level {
					ax, ay := left()
					bx, by := top()
					emit(ax, ay, bx, by)
					cx, cy := bottom()
					dx, dy := right()
					emit(cx, cy, dx, dy)
				} else {
					ax, ay := left()
					bx, by := bottom()
					emit(ax, ay, bx, by)
					cx, cy := top()
					dx, dy := right()
					emit(cx, cy, dx, dy)
				}
			case 10:
				if (tl+tr+br+bl)/4 >= level {
					ax, ay := top()
					bx, by := right()
					emit(ax, ay, bx, by)
					cx, cy := left()
					dx, dy := bottom()
					emit(cx, cy, dx, dy)
				} else {
					ax, ay := left()
					bx, by := top()
					emit(ax, ay, bx, by)
					cx, cy := bottom()
					dx, dy := right()
					emit(cx, cy, dx, dy)
				}
			}
		}
	}
	return segs, cells
}

// TestMarchingSquaresMatchesReference compares the table-driven scan
// against the closure-based reference over randomized grids. Values
// are drawn from a small set around the level so saddle cells, exact
// ties (corner == level), and flat edges (a == b) all occur often.
func TestMarchingSquaresMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := []float64{0.5}
	quantized := []float64{0, 0.25, 0.5, 0.75, 1}
	for trial := 0; trial < 60; trial++ {
		nx := 2 + rng.Intn(30)
		ny := 2 + rng.Intn(30)
		g := field.New(nx, ny)
		if trial%2 == 0 {
			for i := range g.Data {
				g.Data[i] = quantized[rng.Intn(len(quantized))]
			}
		} else {
			for i := range g.Data {
				g.Data[i] = rng.Float64()
			}
		}
		for _, level := range levels {
			gotSegs, gotCells := MarchingSquares(g, level)
			wantSegs, wantCells := referenceMarchingSquares(g, level)
			if gotCells != wantCells {
				t.Fatalf("trial %d (%dx%d): cells = %d, reference %d", trial, nx, ny, gotCells, wantCells)
			}
			if !reflect.DeepEqual(gotSegs, wantSegs) {
				t.Fatalf("trial %d (%dx%d): %d segments != reference %d\n got %v\nwant %v",
					trial, nx, ny, len(gotSegs), len(wantSegs), gotSegs, wantSegs)
			}
		}
	}
}

// stdlibPNG is the reference encoder EncodePNG replaced: image/png at
// BestSpeed.
func stdlibPNG(tb testing.TB, img *image.RGBA) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: png.BestSpeed}).Encode(&buf, img); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncodePNG fails unless EncodePNG writes image/png's bytes, and
// returns them.
func checkEncodePNG(tb testing.TB, name string, img *image.RGBA) []byte {
	tb.Helper()
	got, err := EncodePNG(img)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	want := stdlibPNG(tb, img)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		tb.Fatalf("%s (%v): %d bytes, image/png %d; first difference at byte %d", name, img.Rect, len(got), len(want), i)
	}
	return got
}

// countRowFilters adds the filter type of each row of an 8-bit RGB or
// RGBA PNG to counts.
func countRowFilters(tb testing.TB, data []byte, counts *[5]int) {
	tb.Helper()
	var idat []byte
	var w, bpp int
	for p := len(pngSignature); p+8 <= len(data); {
		n := int(binary.BigEndian.Uint32(data[p:]))
		body := data[p+8 : p+8+n]
		switch string(data[p+4 : p+8]) {
		case "IHDR":
			w, bpp = int(binary.BigEndian.Uint32(body)), 3
			if body[9] == ctTrueColorAlpha {
				bpp = 4
			}
		case "IDAT":
			idat = append(idat, body...)
		}
		p += 12 + n
	}
	zr, err := zlib.NewReader(bytes.NewReader(idat))
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < len(raw); i += 1 + bpp*w {
		counts[raw[i]]++
	}
}

// solverField returns a default heat or ocean field after steps solver
// steps, and the app's pipeline render options: its colormap and
// isolines at 512×512.
func solverField(app string, steps int) (*field.Grid, RenderOptions) {
	opts := DefaultRenderOptions()
	switch app {
	case "heat":
		s := heat.NewSolver(heat.DefaultParams())
		s.Step(steps)
		opts.Colormap, opts.Isolines = Inferno(), []float64{250, 500, 750}
		return s.Field(), opts
	case "ocean":
		s := ocean.NewSolver(ocean.DefaultParams())
		s.Step(steps)
		opts.Colormap, opts.Isolines = CoolWarm(), []float64{0}
		return s.Field(), opts
	default:
		panic("unknown app " + app)
	}
}

// solverFrame renders and annotates solverField(app, steps).
func solverFrame(app string, steps int) *image.RGBA {
	g, opts := solverField(app, steps)
	img, _ := Render(g, opts)
	lo, hi := g.MinMax()
	Annotate(img, AnnotateOptions{Step: uint64(steps), SimTime: float64(steps) / 4, Colormap: opts.Colormap, Lo: lo, Hi: hi})
	return img
}

// randomRaster fills a w×h raster. Opaque rasters get random colours;
// translucent ones random alpha from 0, 255 and partial values, with
// channels that may exceed alpha (image/png truncates those when it
// un-premultiplies). smooth draws each byte near its upper and left
// neighbours so the row filters compete closely.
func randomRaster(rng *rand.Rand, w, h int, opaque, smooth bool) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := range img.Pix {
		switch {
		case i%4 == 3 && opaque:
			img.Pix[i] = 0xff
		case i%4 == 3:
			img.Pix[i] = [...]uint8{0, 0xff, uint8(rng.Intn(256))}[rng.Intn(3)]
		case smooth && i >= img.Stride && i%img.Stride >= 4:
			img.Pix[i] = uint8((int(img.Pix[i-4])+int(img.Pix[i-img.Stride]))/2 + rng.Intn(7) - 3)
		default:
			img.Pix[i] = uint8(rng.Intn(256))
		}
	}
	return img
}

// TestEncodePNGMatchesStdlib pins EncodePNG byte for byte to
// image/png: real annotated frames, random rasters of every tail
// length for 3 and 4 bytes per pixel and of rows too long for one
// accumulator flush, flat and smooth rasters where filter sums tie,
// and sub-images with an offset origin and a wide stride.
func TestEncodePNGMatchesStdlib(t *testing.T) {
	var filters [5]int // rows per filter type across the frames and random rasters
	for _, app := range []string{"heat", "ocean"} {
		for _, steps := range []int{1, 80, 640} {
			img := solverFrame(app, steps)
			countRowFilters(t, checkEncodePNG(t, app, img), &filters)
			ReleaseFrame(img)
		}
	}

	rng := rand.New(rand.NewSource(14))
	for w := 1; w <= 67; w++ {
		h := 1 + rng.Intn(9)
		for _, opaque := range []bool{true, false} {
			for _, smooth := range []bool{false, true} {
				countRowFilters(t, checkEncodePNG(t, "random", randomRaster(rng, w, h, opaque, smooth)), &filters)
			}
		}
	}
	// Rows longer than 255 words flush the chooser's 16-bit sums
	// mid-row.
	for _, w := range []int{683, 1366} {
		for _, opaque := range []bool{true, false} {
			countRowFilters(t, checkEncodePNG(t, "wide", randomRaster(rng, w, 3, opaque, false)), &filters)
		}
	}
	for f, rows := range filters {
		if rows == 0 {
			t.Errorf("no row chose filter type %d (rows per type: %v); the suite must exercise every filter", f, filters)
		}
	}

	for _, a := range []uint8{0xff, 0x80, 0} {
		flat := image.NewRGBA(image.Rect(0, 0, 33, 7))
		grad := image.NewRGBA(image.Rect(0, 0, 61, 19))
		for i := range flat.Pix {
			flat.Pix[i] = [...]uint8{0x40, 0x40, 0x40, a}[i%4]
		}
		for y := 0; y < 19; y++ {
			for x := 0; x < 61; x++ {
				grad.SetRGBA(x, y, color.RGBA{uint8(3 * x), uint8(5 * y), uint8(x + y), a})
			}
		}
		checkEncodePNG(t, "flat", flat)
		checkEncodePNG(t, "gradient", grad)
	}

	for _, opaque := range []bool{true, false} {
		base := randomRaster(rng, 40, 30, opaque, true)
		sub := base.SubImage(image.Rect(5, 7, 30, 20)).(*image.RGBA)
		if sub.Rect.Min == (image.Point{}) || sub.Stride <= 4*sub.Rect.Dx() {
			t.Fatalf("sub-image %v stride %d does not exercise an offset origin and wide stride", sub.Rect, sub.Stride)
		}
		checkEncodePNG(t, "sub-image", sub)
	}
}

// idatChunks returns the data lengths of a PNG's IDAT chunks in order.
func idatChunks(tb testing.TB, data []byte) []int {
	tb.Helper()
	var sizes []int
	for p := len(pngSignature); p+8 <= len(data); {
		n := int(binary.BigEndian.Uint32(data[p:]))
		if string(data[p+4:p+8]) == "IDAT" {
			sizes = append(sizes, n)
		}
		p += 12 + n
	}
	return sizes
}

// noiseRaster is a w×h raster of uniformly random bytes. Alpha is 255
// when opaque and drawn from 1–255 otherwise, so the un-premultiplied
// rows stay incompressible too.
func noiseRaster(rng *rand.Rand, w, h int, opaque bool) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := range img.Pix {
		switch {
		case i%4 == 3 && opaque:
			img.Pix[i] = 0xff
		case i%4 == 3:
			img.Pix[i] = uint8(1 + rng.Intn(255))
		default:
			img.Pix[i] = uint8(rng.Intn(256))
		}
	}
	return img
}

// bandedRaster is a w×h raster of one colour down to row flat and
// of noise below it, each colour byte drawn from [0x20, 0x20+amp).
// Every pixel has alpha a.
func bandedRaster(rng *rand.Rand, w, h, flat, amp int, a uint8) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := range img.Pix {
		switch {
		case i%4 == 3:
			img.Pix[i] = a
		case i < flat*img.Stride:
			img.Pix[i] = 0x40
		default:
			img.Pix[i] = uint8(0x20 + rng.Intn(amp))
		}
	}
	return img
}

// TestEncodePNGPastOneBlock compares EncodePNG with image/png where
// the filtered rows outgrow one 65535-byte deflate block, each case
// opaque and translucent: noise that deflate stores, in blocks longer
// than the 32 KiB bufio.Writer, which writes them through as IDAT
// chunks of other sizes; a flat band over low-amplitude noise, so
// Huffman-only blocks follow a dynamic one; and sizes whose filtered
// stream ends 1–16 bytes (a stored final block) or 17–127 bytes
// (Huffman-coded, or stored where that saves too little) past whole
// blocks.
func TestEncodePNGPastOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const block = 65535
	odd := 0 // non-final IDAT chunks of other than 32768 bytes
	for _, c := range []struct {
		name string
		img  *image.RGBA
		tail [2]int // the range the filtered length's excess over whole blocks must fall in, if set
	}{
		{"opaque noise", noiseRaster(rng, 200, 200, true), [2]int{}},
		{"translucent noise", noiseRaster(rng, 150, 150, false), [2]int{}},
		{"opaque band over noise", bandedRaster(rng, 256, 256, 90, 16, 0xff), [2]int{}},
		{"translucent band over noise", bandedRaster(rng, 200, 240, 90, 16, 0x80), [2]int{}},
		{"opaque, 5-byte tail", randomRaster(rng, 178, 245, true, true), [2]int{1, 16}},
		{"translucent, 15-byte tail", randomRaster(rng, 109, 150, false, true), [2]int{1, 16}},
		{"opaque, 112-byte tail", randomRaster(rng, 204, 214, true, true), [2]int{17, 127}},
		{"translucent, 126-byte tail", randomRaster(rng, 127, 129, false, true), [2]int{17, 127}},
	} {
		w, h := c.img.Rect.Dx(), c.img.Rect.Dy()
		bpp := 4
		if c.img.Opaque() {
			bpp = 3
		}
		n := h * (1 + bpp*w)
		if n <= block {
			t.Fatalf("%s: %d filtered bytes fit one block", c.name, n)
		}
		if c.tail != [2]int{} && (n%block < c.tail[0] || n%block > c.tail[1]) {
			t.Fatalf("%s: %d filtered bytes end %d past whole blocks, want %d–%d", c.name, n, n%block, c.tail[0], c.tail[1])
		}
		chunks := idatChunks(t, checkEncodePNG(t, c.name, c.img))
		for _, size := range chunks[:len(chunks)-1] {
			if size != 32768 {
				odd++
			}
		}
	}
	if odd == 0 {
		t.Error("every non-final IDAT chunk holds 32768 bytes; no stored block was written through bufio whole")
	}
}

// referencePaeth is image/png's scalar Paeth predictor.
func referencePaeth(a, b, c uint8) uint8 {
	pc := int(c)
	pa := int(b) - pc
	pb := int(a) - pc
	pc = abs(pa + pb)
	pa = abs(pa)
	pb = abs(pb)
	if pa <= pb && pa <= pc {
		return a
	} else if pb <= pc {
		return b
	}
	return c
}

// wordLoop is the signature sumWords and sumWordsSWAR share.
type wordLoop = func(cd, pd, pth []byte, bpp int, sums *[5]int) int

// wordLoops are the word loops under test: the build's sumWords (the
// SSE2 kernel on amd64) and the portable SWAR loop.
var wordLoops = []struct {
	name string
	f    wordLoop
}{{"sumWords", sumWords}, {"sumWordsSWAR", sumWordsSWAR}}

// TestPaethSWARExhaustive checks both word loops' Paeth residuals
// against the scalar predictor on all 2^24 (a, b, c) triples. At 16
// bytes per pixel a 32-byte row holds one 16-byte block, two words,
// from index 16: a and c are the first half of the current and
// previous rows, b the second half of the previous one. Lane k of
// block w holds triple (w + k·2^20)·0x9e3779 mod 2^24, a bijection
// that covers every triple once and gives neighbouring lanes unrelated
// values, so a borrow or carry leaking between lanes shows.
func TestPaethSWARExhaustive(t *testing.T) {
	var cd, pd, pth [32]byte
	for _, loop := range wordLoops {
		for w := uint32(0); w < 1<<20; w++ {
			for k := 0; k < 16; k++ {
				tr := (w + uint32(k)<<20) * 0x9e3779 & 0xffffff
				cd[k], pd[16+k], pd[k] = uint8(tr>>16), uint8(tr>>8), uint8(tr)
				cd[16+k] = uint8(tr >> 4) // x, the byte being filtered
			}
			var sums [5]int
			if next := loop.f(cd[:], pd[:], pth[:], 16, &sums); next != 32 {
				t.Fatalf("%s stopped at %d of a 32-byte row at 16 bytes per pixel, want 32", loop.name, next)
			}
			for k := 0; k < 16; k++ {
				a, b, c, x := cd[k], pd[16+k], pd[k], cd[16+k]
				if got, want := x-pth[16+k], referencePaeth(a, b, c); got != want {
					t.Fatalf("%s: Paeth predictor in lane %d of (a=%d, b=%d, c=%d) = %d, want %d", loop.name, k, a, b, c, got, want)
				}
			}
		}
	}
}

// rowSums returns the five filters' sums of |int8| residuals of row
// cd under pd, by filter type, and its Paeth residual row, with loop
// taking whatever whole words it takes from index bpp on and scalar
// code the rest; a nil loop leaves every byte to scalar code. pth
// carries guard bytes past the row that loop must leave alone.
func rowSums(tb testing.TB, loop wordLoop, cd, pd []byte, bpp int) ([5]int, []byte) {
	tb.Helper()
	n := len(cd)
	pth := bytes.Repeat([]byte{0xa5}, n+16)
	var sums [5]int
	next := bpp
	if loop != nil {
		next = loop(cd, pd, pth[:n], bpp, &sums)
	}
	if next < bpp || next > n {
		tb.Fatalf("%d-byte row at %d bytes per pixel: word loop returned %d", n, bpp, next)
	}
	for i := 0; i < n; i++ {
		if i >= bpp && i < next {
			continue
		}
		var a, c uint8
		if i >= bpp {
			a, c = cd[i-bpp], pd[i-bpp]
		}
		r := residuals(cd[i], a, pd[i], c)
		pth[i] = r[ftPaeth]
		for f, v := range r {
			sums[f] += absInt8(v)
		}
	}
	if !bytes.Equal(pth[n:], bytes.Repeat([]byte{0xa5}, 16)) {
		tb.Fatalf("%d-byte row at %d bytes per pixel: word loop wrote past the row: % x", n, bpp, pth[n:])
	}
	return sums, pth[:n]
}

// TestSumWordsMatchesSWAR compares the five sums and the Paeth
// residual row of sumWords (on amd64, the SSE2 kernel) and of the
// portable SWAR loop with scalar residuals, on rows of every length
// from bpp to bpp+80 bytes at 3 and 4 bytes per pixel: noisy rows,
// smooth rows where the filters compete closely, and rows of extreme
// bytes (0, 1, 127, 128, 129, 254, 255) where signs, saturation and
// rounding sit at their edges.
func TestSumWordsMatchesSWAR(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	extremes := []uint8{0, 1, 127, 128, 129, 254, 255}
	for _, bpp := range []int{3, 4} {
		for n := bpp; n <= bpp+80; n++ {
			for _, kind := range []string{"noisy", "smooth", "extreme"} {
				for trial := 0; trial < 40; trial++ {
					cd, pd := make([]byte, n), make([]byte, n)
					for i := range cd {
						switch kind {
						case "noisy":
							cd[i], pd[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
						case "extreme":
							cd[i], pd[i] = extremes[rng.Intn(len(extremes))], extremes[rng.Intn(len(extremes))]
						default:
							pd[i] = uint8(0x80 + rng.Intn(9) - 4)
							if i >= bpp {
								pd[i] = uint8(int(pd[i-bpp]) + rng.Intn(9) - 4)
							}
							cd[i] = uint8(int(pd[i]) + rng.Intn(9) - 4)
							if i >= bpp {
								cd[i] = uint8((int(cd[i-bpp])+int(pd[i]))/2 + rng.Intn(9) - 4)
							}
						}
					}
					want, wantPth := rowSums(t, nil, cd, pd, bpp)
					for _, loop := range wordLoops {
						got, gotPth := rowSums(t, loop.f, cd, pd, bpp)
						if got != want || !bytes.Equal(gotPth, wantPth) {
							t.Fatalf("%s, %s %d-byte row at %d bytes per pixel: sums %v, Paeth row % x; scalar sums %v, Paeth row % x\ncd % x\npd % x",
								loop.name, kind, n, bpp, got, gotPth, want, wantPth, cd, pd)
						}
					}
				}
			}
		}
	}
}

// TestOpaqueMatchesStdlib puts one translucent pixel at each position,
// tail pixels included, of small rasters and of an offset sub-image
// with a wide stride whose parent is translucent outside it. opaque
// must answer as image.RGBA.Opaque does, and EncodePNG must write
// image/png's bytes, colour type included.
func TestOpaqueMatchesStdlib(t *testing.T) {
	check := func(name string, img *image.RGBA) {
		t.Helper()
		if got, want := opaque(img), img.Opaque(); got != want {
			t.Fatalf("%s (%v, stride %d): opaque = %v, Opaque() = %v", name, img.Rect, img.Stride, got, want)
		}
		checkEncodePNG(t, name, img)
	}
	alphas := []uint8{0xfe, 0x80, 0}
	eachPixel := func(name string, img *image.RGBA) {
		t.Helper()
		check(name, img)
		for y := img.Rect.Min.Y; y < img.Rect.Max.Y; y++ {
			for x := img.Rect.Min.X; x < img.Rect.Max.X; x++ {
				p := img.PixOffset(x, y) + 3
				img.Pix[p] = alphas[(x+y)%len(alphas)]
				check(name+", one translucent pixel", img)
				img.Pix[p] = 0xff
			}
		}
	}
	rng := rand.New(rand.NewSource(19))
	for w := 1; w <= 17; w++ {
		for h := 1; h <= 3; h++ {
			eachPixel("small", randomRaster(rng, w, h, true, false))
		}
	}
	base := randomRaster(rng, 40, 30, false, false)
	for i := 3; i < len(base.Pix); i += 4 {
		base.Pix[i] = alphas[i/4%len(alphas)]
	}
	sub := base.SubImage(image.Rect(5, 7, 30, 20)).(*image.RGBA)
	for y := sub.Rect.Min.Y; y < sub.Rect.Max.Y; y++ {
		for x := sub.Rect.Min.X; x < sub.Rect.Max.X; x++ {
			sub.Pix[sub.PixOffset(x, y)+3] = 0xff
		}
	}
	eachPixel("sub-image", sub)
}

// FuzzEncodePNG compares EncodePNG with image/png on rasters of up to
// 64×16 pixels whose bytes repeat the fuzzed data.
func FuzzEncodePNG(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{1, 2, 3, 255})
	f.Add(uint8(2), uint8(3), []byte{7, 200, 13, 128, 40, 41, 42, 0})
	f.Add(uint8(8), uint8(5), []byte{0x80, 0x7f, 0x01, 0xff, 0xfe})
	f.Add(uint8(66), uint8(9), []byte{10, 20, 30, 255, 11, 21, 31, 255, 12, 22, 32, 255})
	f.Fuzz(func(t *testing.T, wb, hb uint8, data []byte) {
		img := image.NewRGBA(image.Rect(0, 0, 1+int(wb)%64, 1+int(hb)%16))
		if len(data) > 0 {
			for i := range img.Pix {
				img.Pix[i] = data[i%len(data)]
			}
		}
		checkEncodePNG(t, "fuzz", img)
	})
}
