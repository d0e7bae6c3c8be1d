package viz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/field"
)

// fillCase is one fillRow call's inputs: a row of len(colX) pixels.
type fillCase struct {
	colX              []int32
	colW              []float64
	r0, r1            []float64
	table             *[tableSize]uint32
	omwy, wy, lo, inv float64
}

// fillRowFunc is the signature fillRow and fillRowPortable share.
type fillRowFunc = func(row []byte, t []float64, slow []int32, colX []int32, colW []float64, r0, r1 []float64, table *[tableSize]uint32, omwy, wy, lo, inv float64) int

// fillGuard is the byte every row and guard byte starts as: fillRow
// must leave slow pixels and everything past the row as it found them.
const fillGuard = 0xa5

// runFillRow runs f on c with outputs followed by guard elements, fails
// if f writes past the row, and returns t, the slow list and the row.
func runFillRow(tb testing.TB, name string, f fillRowFunc, c fillCase) ([]float64, []int32, []byte) {
	tb.Helper()
	w := len(c.colX)
	row := bytes.Repeat([]byte{fillGuard}, 4*w+8)
	t := make([]float64, w+2)
	slow := make([]int32, w+2)
	for i := range t {
		t[i] = math.Float64frombits(0x7ff4a5a5a5a5a5a5)
		slow[i] = -fillGuard
	}
	n := f(row[:4*w], t[:w], slow[:w], c.colX, c.colW, c.r0, c.r1, c.table, c.omwy, c.wy, c.lo, c.inv)
	if n < 0 || n > w {
		tb.Fatalf("%s: %d-pixel row: slow count %d", name, w, n)
	}
	if !bytes.Equal(row[4*w:], bytes.Repeat([]byte{fillGuard}, 8)) ||
		math.Float64bits(t[w]) != 0x7ff4a5a5a5a5a5a5 || math.Float64bits(t[w+1]) != 0x7ff4a5a5a5a5a5a5 ||
		slices.ContainsFunc(slow[n:], func(s int32) bool { return s != -fillGuard }) {
		tb.Fatalf("%s: %d-pixel row with %d slow pixels: wrote past the row or the slow list", name, w, n)
	}
	return t[:w], slow[:n], row[:4*w]
}

// checkFillRow compares fillRow with fillRowPortable on c: t bit for
// bit (any NaN equals any NaN: a NaN's payload follows operand order,
// which the compiler may swap in a commutative operation, and every
// NaN pixel is slow either way), the slow list, and the row bytes. It
// returns the portable loop's t and slow list.
func checkFillRow(tb testing.TB, c fillCase) ([]float64, []int32) {
	tb.Helper()
	gotT, gotSlow, gotRow := runFillRow(tb, "fillRow", fillRow, c)
	wantT, wantSlow, wantRow := runFillRow(tb, "fillRowPortable", fillRowPortable, c)
	for px := range wantT {
		g, w := gotT[px], wantT[px]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			tb.Fatalf("%d-pixel row: t[%d] = %v (%#016x), portable %v (%#016x)\ncolX %v colW %v\nr0 %v\nr1 %v\nomwy %v wy %v lo %v inv %v",
				len(wantT), px, g, math.Float64bits(g), w, math.Float64bits(w), c.colX, c.colW, c.r0, c.r1, c.omwy, c.wy, c.lo, c.inv)
		}
	}
	if !slices.Equal(gotSlow, wantSlow) {
		tb.Fatalf("%d-pixel row: slow pixels %v, portable %v\nt %v", len(wantT), gotSlow, wantSlow, wantT)
	}
	if !bytes.Equal(gotRow, wantRow) {
		i := 0
		for gotRow[i] == wantRow[i] {
			i++
		}
		tb.Fatalf("%d-pixel row: pixel %d is % x, portable % x (t = %v)", len(wantT), i/4, gotRow[i&^3:i&^3+4], wantRow[i&^3:i&^3+4], wantT[i/4])
	}
	return wantT, wantSlow
}

// fillTargets returns the t values the kernel must treat exactly as
// the portable loop does: 0 and −0, the subnormals next to 0, 1 and its
// neighbours, ±Inf, NaN, values whose bucket index overflows an int32,
// and each bucket edge k/tableSize with its two neighbours for the
// first, last and spike buckets and every bucket that holds a stop of
// one of maps.
func fillTargets(maps []*Colormap) []float64 {
	targets := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		3 * math.SmallestNonzeroFloat64, 0x1p-1023, -0x1p-1030,
		1, math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.Inf(1), math.Inf(-1), math.NaN(),
		0x1p31 / tableSize, -0x1p31 / tableSize, 1e300, -1e300, math.MaxFloat64,
	}
	edges := []int{0, 1, 2, spikeBucket, spikeBucket + 1, tableSize - 1, tableSize}
	for _, cm := range maps {
		for _, s := range cm.stops {
			edges = append(edges, int(s*tableSize), int(s*tableSize)+1)
		}
	}
	for _, k := range edges {
		v := float64(k) / tableSize
		targets = append(targets, math.Nextafter(v, -1), v, math.Nextafter(v, 2))
	}
	return targets
}

// fillCoverage counts the kinds of pixel the comparisons reached.
type fillCoverage map[string]int

// add counts c's pixels by kind, given the portable loop's t and slow
// list.
func (cov fillCoverage) add(c fillCase, t []float64, slow []int32) {
	isSlow := make([]bool, len(t))
	for _, px := range slow {
		isSlow[px] = true
	}
	for px, v := range t {
		k := int(v * tableSize)
		x0 := int(c.colX[px])
		finite := true
		for _, f := range []float64{c.r0[x0], c.r0[x0+1], c.r1[x0], c.r1[x0+1]} {
			finite = finite && !math.IsInf(f, 0) && !math.IsNaN(f)
		}
		switch {
		case math.IsNaN(v):
			cov["NaN"]++
		case math.IsInf(v, 0) && finite:
			cov["overflow"]++
		case math.IsInf(v, 1):
			cov["+Inf"]++
		case math.IsInf(v, -1):
			cov["-Inf"]++
		case v == 0 && math.Signbit(v):
			cov["-0"]++
		case v == 0:
			cov["+0"]++
		case math.Abs(v) < 0x1p-1022:
			cov["subnormal"]++
		case v == 1:
			cov["1"]++
		case v == math.Nextafter(1, 0):
			cov["1-ulp"]++
		case v == math.Nextafter(1, 2):
			cov["1+ulp"]++
		case v > 0 && k == 0:
			cov["bucket 0"]++
		case v > 0 && v < 1 && float64(k) == v*tableSize:
			cov["bucket edge"]++
		case v > 0 && v < 1 && float64(k+1) == math.Nextafter(v, 2)*tableSize:
			cov["below a bucket edge"]++
		case v > 0 && v < 1 && isSlow[px]:
			cov["mixed"]++
		case v > 0 && v < 1:
			cov["pure"]++
		}
	}
}

// TestFillRowMatchesPortable compares fillRow (on amd64, the SSE2
// kernel) with the portable loop on rows of every width from 0 to 67
// pixels, so every odd tail is covered, under the built-in maps and
// the dense, many-stop and spike maps. Three kinds of row: each pixel
// alone on its target field value (weights 0, lo 0, inv ±1), so t is
// exactly a fillTargets value or its negation; random blends of random
// fields over random scales with targets mixed in; and blends of
// near-maximal values with weights outside [0, 1] and huge inv, whose
// products and sums overflow. It fails unless every pixel kind of
// fillCoverage was reached.
func TestFillRowMatchesPortable(t *testing.T) {
	maps := []*Colormap{Inferno(), CoolWarm(), Grayscale(), denseMap(), manyStopsMap(), spikeMap()}
	targets := fillTargets(maps)
	rng := rand.New(rand.NewSource(24))
	target := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64()
		}
		return targets[rng.Intn(len(targets))]
	}
	cov := fillCoverage{}
	for w := 0; w <= 67; w++ {
		for _, cm := range maps {
			for trial := 0; trial < 12; trial++ {
				c := fillCase{table: cm.table, colX: make([]int32, w), colW: make([]float64, w)}
				switch trial % 3 {
				case 0: // exact targets
					c.omwy, c.inv = 1, 1
					if rng.Intn(2) == 0 {
						c.inv = -1
					}
					c.r0, c.r1 = make([]float64, 2*w+2), make([]float64, 2*w+2)
					sign := float64(rng.Intn(2)*2 - 1)
					for i := range c.r0 {
						c.r0[i] = sign * float64(rng.Intn(3)) / 2
						c.r1[i] = sign * float64(rng.Intn(3)) / 2
					}
					for px := range c.colX {
						c.colX[px] = int32(2 * px)
						c.r0[2*px] = target() * c.inv
					}
				case 1: // random blends
					nx := 2 + rng.Intn(40)
					c.r0, c.r1 = make([]float64, nx), make([]float64, nx)
					for i := range c.r0 {
						c.r0[i], c.r1[i] = rng.NormFloat64(), rng.NormFloat64()
						if rng.Intn(16) == 0 {
							c.r0[i] = targets[rng.Intn(len(targets))]
						}
					}
					c.wy = rng.Float64()
					c.omwy = 1 - c.wy
					c.lo = rng.NormFloat64() - 1
					c.inv = 1 / (rng.Float64()*4 + 0.01)
					for px := range c.colX {
						c.colX[px] = int32(rng.Intn(nx - 1))
						c.colW[px] = rng.Float64()
					}
				default: // overflowing products and sums
					nx := 2 + rng.Intn(8)
					c.r0, c.r1 = make([]float64, nx), make([]float64, nx)
					for i := range c.r0 {
						c.r0[i] = math.MaxFloat64 * (rng.Float64()*2 - 1)
						c.r1[i] = math.MaxFloat64 * (rng.Float64()*2 - 1)
					}
					c.wy = rng.Float64()*9 - 4
					c.omwy = 1 - c.wy
					c.lo = -math.MaxFloat64 * rng.Float64()
					c.inv = [...]float64{1e300, 1, 0x1p-1074}[rng.Intn(3)]
					for px := range c.colX {
						c.colX[px] = int32(rng.Intn(nx - 1))
						c.colW[px] = rng.Float64()*9 - 4
					}
				}
				tv, slow := checkFillRow(t, c)
				cov.add(c, tv, slow)
			}
		}
	}
	for _, kind := range []string{"NaN", "overflow", "+Inf", "-Inf", "-0", "+0", "subnormal", "1", "1-ulp", "1+ulp", "bucket 0", "bucket edge", "below a bucket edge", "mixed", "pure"} {
		if cov[kind] == 0 {
			t.Errorf("no pixel reached %s; coverage %v", kind, cov)
		}
	}
}

// FuzzFillRow compares fillRow with the portable loop on fuzzed rows:
// the field rows hold data's bytes as float64 bits (NaNs, infinities
// and subnormals included), each pixel's column and weight come from
// its own data byte, and wy, lo and inv are fuzzed with the map.
func FuzzFillRow(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0.25, 0.5, 0.75, 1), uint8(5), 0.5, 0.0, 1.0, uint8(0))
	f.Add(seed(0, math.Copysign(0, -1), 1, math.Nextafter(1, 0)), uint8(7), 0.0, 0.0, 1.0, uint8(3))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e300, -1e300), uint8(9), 0.25, -0.5, 2.0, uint8(5))
	f.Add(seed(1.0/tableSize, math.Nextafter(1.0/tableSize, 0), float64(spikeBucket)/tableSize, 0.1), uint8(67), 0.0, 0.0, 1.0, uint8(4))
	f.Add(seed(math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64), uint8(2), 0.5, -math.MaxFloat64, 1e300, uint8(1))
	maps := []*Colormap{Inferno(), CoolWarm(), Grayscale(), denseMap(), manyStopsMap(), spikeMap()}
	f.Fuzz(func(t *testing.T, data []byte, width uint8, wy, lo, inv float64, m uint8) {
		vals := make([]float64, max(4, (len(data)+7)/8))
		for i := range vals {
			var word [8]byte
			copy(word[:], data[min(8*i, len(data)):])
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		c := fillCase{
			r0: vals[:len(vals)/2], r1: vals[len(vals)/2:],
			table: maps[int(m)%len(maps)].table,
			omwy:  1 - wy, wy: wy, lo: lo, inv: inv,
			colX: make([]int32, width), colW: make([]float64, width),
		}
		nx := len(c.r0)
		for px := range c.colX {
			b := byte(px)
			if len(data) > 0 {
				b = data[px%len(data)]
			}
			c.colX[px] = int32(int(b) % (nx - 1))
			c.colW[px] = float64(b) / 256
		}
		checkFillRow(t, c)
	})
}

// renderPanic returns the message Render(g, opts) panics with, or ""
// if it returns.
func renderPanic(g *field.Grid, opts RenderOptions) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	Render(g, opts)
	return ""
}

// TestRenderPanicsOnNaN pins what a NaN field value does: the pixels
// it reaches take the slow path, which panics with its own message on
// every GOARCH (arm64 converts NaN to index 0, so the table lookup
// alone would colour it there).
func TestRenderPanicsOnNaN(t *testing.T) {
	g := field.New(128, 128)
	for i := range g.Data {
		g.Data[i] = float64(i % 97)
	}
	g.Set(70, 40, math.NaN())
	if msg := renderPanic(g, DefaultRenderOptions()); !strings.Contains(msg, "normalizes to NaN") {
		t.Fatalf("Render of a field with a NaN cell: panic %q, want one naming the NaN", msg)
	}
}

// TestRenderFlatFieldIsFirstColour renders auto-scaled flat fields at
// the pipelines' 512² from 128²: every pixel must take the colormap's
// first colour, at magnitudes whose blend rounds off by an ulp or two
// as well, and a NaN in an otherwise flat field must still panic.
func TestRenderFlatFieldIsFirstColour(t *testing.T) {
	cm := Inferno()
	opts := RenderOptions{Width: 512, Height: 512, Colormap: cm}
	for _, v := range []float64{0, 20, -273.15, 1e12, 1e14, 1e15, 1e16, -1e15, 0x1p53} {
		g := field.New(128, 128)
		g.Fill(v)
		img, _ := Render(g, opts)
		off := 0
		for i := 0; i < len(img.Pix); i += 4 {
			if binary.LittleEndian.Uint32(img.Pix[i:]) != cm.first {
				off++
			}
		}
		if off != 0 {
			t.Errorf("flat field of %g: %d of %d pixels are not the first colour", v, off, len(img.Pix)/4)
		}
		ReleaseFrame(img)
		g.Set(70, 40, math.NaN())
		if msg := renderPanic(g, opts); !strings.Contains(msg, "(70, 40) of a flat field is NaN") {
			t.Errorf("flat field of %g with a NaN cell: panic %q, want one naming the NaN cell", v, msg)
		}
	}
}

// TestRenderFiniteRanges renders finite fields whose range has no
// finite inverse: flat fields of any magnitude and spans of a few
// subnormals must render (they used to panic with an index error),
// every pixel in the first or the last colour, since t = v − lo is then
// a few ulps of v at most; a span that overflows must panic with a
// message naming its ends.
func TestRenderFiniteRanges(t *testing.T) {
	fill := func(vals ...float64) *field.Grid {
		g := field.New(16, 16)
		for i := range g.Data {
			g.Data[i] = vals[i%len(vals)]
		}
		return g
	}
	cm := Inferno()
	for _, tc := range []struct {
		name   string
		g      *field.Grid
		lo, hi float64
		panics string // the message names this, "" if it renders
	}{
		{name: "flat 1e16", g: fill(1e16)},
		{name: "flat 2^53", g: fill(0x1p53)},
		{name: "flat -max", g: fill(-math.MaxFloat64)},
		{name: "0 and 5e-324", g: fill(0, 0, 0, 5e-324)},
		{name: "range 0 to 1e-320", g: fill(0, 1e-320, 0, 5e-324), lo: 0, hi: 1e-320},
		{name: "field -1e308 to 1e308", g: fill(-1e308, 1e308), panics: "-1e+308 to 1e+308 overflows"},
		{name: "range -1e308 to 1e308", g: fill(0, 1), lo: -1e308, hi: 1e308, panics: "-1e+308 to 1e+308 overflows"},
		{name: "range 1e308 to -1e308", g: fill(0, 1), lo: 1e308, hi: -1e308, panics: "1e+308 to -1e+308 overflows"},
		{name: "flat +Inf", g: fill(math.Inf(1)), panics: "+Inf to +Inf overflows"},
	} {
		opts := RenderOptions{Width: 32, Height: 32, Colormap: cm, Lo: tc.lo, Hi: tc.hi}
		msg := renderPanic(tc.g, opts)
		if tc.panics != "" {
			if !strings.Contains(msg, tc.panics) {
				t.Errorf("%s: Render panic %q, want one naming %q", tc.name, msg, tc.panics)
			}
			continue
		}
		if msg != "" {
			t.Errorf("%s: Render panicked: %s", tc.name, msg)
			continue
		}
		img, _ := Render(tc.g, opts)
		for i := 0; i < len(img.Pix); i += 4 {
			if c := binary.LittleEndian.Uint32(img.Pix[i:]); c != cm.first && c != cm.last {
				t.Errorf("%s: pixel %d is %#08x, neither the first colour %#08x nor the last %#08x", tc.name, i/4, c, cm.first, cm.last)
				break
			}
		}
	}
}
