// Package viz is the visualization stage of both pipelines: colormaps,
// a bilinear field-to-raster renderer, marching-squares isocontours,
// and PNG frame encoding. Like the heat solver, it performs real work
// on real data; the platform model charges virtual time for the pixels
// and cells it processes.
package viz

import (
	"fmt"
	"image/color"
	"math"
	"sort"
)

// tableSize is the colour table's bucket count. Bucket k holds exactly
// the t in [k/tableSize, (k+1)/tableSize): scaling by a power of two is
// exact, so int(t*tableSize) never lands in a neighbouring bucket. At
// 2^14 buckets 84–98 % of a pipeline frame's pixels fall in pure
// buckets; 2^12 leaves enough on the exact path that its mispredicted
// branches cost most of the gain.
const tableSize = 1 << 14

// Colormap maps a normalized scalar in [0, 1] to a color by linear
// interpolation between control points.
type Colormap struct {
	name   string
	stops  []float64
	colors []color.RGBA
	// first and last are colors[0] and the final color packed as
	// R | G<<8 | B<<16 | A<<24, the clamped results for t <= 0 and t >= 1.
	first, last uint32
	// table holds one entry per bucket of t in (0, 1). A pure entry is
	// the packed color every t in the bucket maps to (A = 255, so its
	// top byte is nonzero). A mixed entry has top byte 0 and holds the
	// index of the first stop >= the bucket's smallest t, a lower bound
	// for the segment search of every t in the bucket.
	table *[tableSize]uint32
	// seg holds each segment's endpoint colors pre-widened to float64
	// (base and exact integer delta), sparing the exact path the six
	// uint8 conversions per pixel. seg[i] spans stops[i]..stops[i+1].
	seg []cmSegment
}

// cmSegment is one colormap segment's interpolation state. The deltas
// are exact (integer differences within float64 range), so
// base + f*delta + 0.5 computes bit-identically to the uint8 lerp
// float64(a) + f*(float64(b)-float64(a)) + 0.5.
type cmSegment struct {
	r0, dr, g0, dg, b0, db float64
}

// NewColormap builds a colormap from sorted control points. It panics
// on fewer than two stops, more than 2^24 (a mixed table entry's index
// field), or unsorted positions.
func NewColormap(name string, stops []float64, colors []color.RGBA) *Colormap {
	if len(stops) < 2 || len(stops) != len(colors) {
		panic("viz: colormap needs >= 2 matching stops and colors")
	}
	if len(stops) > 1<<24 {
		panic("viz: colormap has more than 2^24 stops")
	}
	if !sort.Float64sAreSorted(stops) {
		panic("viz: colormap stops must be sorted")
	}
	if stops[0] != 0 || stops[len(stops)-1] != 1 {
		panic("viz: colormap must span [0, 1]")
	}
	c := &Colormap{
		name: name, stops: stops, colors: colors,
		first: pack(colors[0]), last: pack(colors[len(colors)-1]),
		table: new([tableSize]uint32),
	}
	c.seg = make([]cmSegment, len(stops)-1)
	for i := range c.seg {
		a, b := colors[i], colors[i+1]
		c.seg[i] = cmSegment{
			r0: float64(a.R), dr: float64(b.R) - float64(a.R),
			g0: float64(a.G), dg: float64(b.G) - float64(a.G),
			b0: float64(a.B), db: float64(b.B) - float64(a.B),
		}
	}
	// Inside one segment each channel is monotone in t: subtracting
	// and dividing by constants, multiplying by the delta, adding
	// constants and truncating are all monotone under IEEE rounding.
	// So a bucket whose two ends share a segment and a color maps every
	// t between them to that color. The segment comparison matters: a
	// bucket that holds stops can end on equal colors and differ inside.
	for k := range c.table {
		lo := float64(k) / tableSize
		if k == 0 {
			lo = math.SmallestNonzeroFloat64
		}
		hi := math.Nextafter(float64(k+1)/tableSize, 0)
		i := sort.SearchFloat64s(stops, lo) // >= 1, as stops[0] == 0 < lo
		j := i
		for stops[j] < hi {
			j++
		}
		// i is exact for lo, and for hi too when j == i, so exact's
		// walk does not move.
		if p := c.exact(uint32(i), lo); i == j && p == c.exact(uint32(i), hi) {
			c.table[k] = p
		} else {
			c.table[k] = uint32(i)
		}
	}
	return c
}

// Name returns the colormap name.
func (c *Colormap) Name() string { return c.name }

// Map returns the color for t, clamping t into [0, 1].
func (c *Colormap) Map(t float64) color.RGBA {
	var p uint32
	switch {
	case t <= 0:
		p = c.first
	case t >= 1:
		p = c.last
	default:
		p = c.lookup(t)
	}
	return color.RGBA{R: uint8(p), G: uint8(p >> 8), B: uint8(p >> 16), A: uint8(p >> 24)}
}

// lookup returns the color of t in (0, 1) packed as
// R | G<<8 | B<<16 | A<<24: one table load, which for a mixed bucket
// seeds the exact search. A NaN t indexes out of range and panics.
// The render fill's row kernel does the table load itself; lookup
// serves Map and the fill's slow pixels.
func (c *Colormap) lookup(t float64) uint32 {
	e := c.table[int(t*tableSize)]
	if e < 1<<24 {
		return c.exact(e, t)
	}
	return e
}

// exact finds the smallest i >= lower with stops[i] >= t — what
// sort.SearchFloat64s(stops, t) returns, since lower is a lower bound
// for it — and interpolates t in segment i-1.
func (c *Colormap) exact(lower uint32, t float64) uint32 {
	i := int(lower)
	for c.stops[i] < t {
		i++
	}
	// stops[i-1] < t <= stops[i]; i >= 1 because stops[0] == 0 < t.
	lo, hi := c.stops[i-1], c.stops[i]
	f := (t - lo) / (hi - lo)
	s := &c.seg[i-1]
	// The products are rounded before the sums, so no GOARCH fuses
	// them (a fused multiply-add would change colours off amd64).
	return uint32(uint8(s.r0+float64(f*s.dr)+0.5)) |
		uint32(uint8(s.g0+float64(f*s.dg)+0.5))<<8 |
		uint32(uint8(s.b0+float64(f*s.db)+0.5))<<16 |
		0xff<<24
}

// pack returns c as R | G<<8 | B<<16 | A<<24, the byte order of an
// RGBA pixel read as a little-endian uint32.
func pack(c color.RGBA) uint32 {
	return uint32(c.R) | uint32(c.G)<<8 | uint32(c.B)<<16 | uint32(c.A)<<24
}

// The built-in maps are immutable after construction, so the
// constructors hand out shared instances: renders are per-frame hot
// paths and must not rebuild the control-point tables every call.
var (
	infernoMap = NewColormap("inferno",
		[]float64{0, 0.25, 0.5, 0.75, 1},
		[]color.RGBA{
			{0, 0, 4, 255},
			{87, 16, 110, 255},
			{188, 55, 84, 255},
			{249, 142, 9, 255},
			{252, 255, 164, 255},
		})
	coolwarmMap = NewColormap("coolwarm",
		[]float64{0, 0.5, 1},
		[]color.RGBA{
			{59, 76, 192, 255},
			{221, 221, 221, 255},
			{180, 4, 38, 255},
		})
	grayMap = NewColormap("gray",
		[]float64{0, 1},
		[]color.RGBA{{0, 0, 0, 255}, {255, 255, 255, 255}})
)

// Inferno returns a perceptually-ordered dark-to-bright map suited to
// temperature fields.
func Inferno() *Colormap { return infernoMap }

// CoolWarm returns the diverging blue-white-red map used for signed
// anomalies.
func CoolWarm() *Colormap { return coolwarmMap }

// Grayscale returns a linear black-to-white ramp.
func Grayscale() *Colormap { return grayMap }

// ByName looks up a built-in colormap.
func ByName(name string) (*Colormap, error) {
	switch name {
	case "inferno":
		return Inferno(), nil
	case "coolwarm":
		return CoolWarm(), nil
	case "gray":
		return Grayscale(), nil
	default:
		return nil, fmt.Errorf("viz: unknown colormap %q", name)
	}
}
