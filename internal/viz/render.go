package viz

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"math"
	"slices"
	"sync"

	"repro/internal/field"
)

// framePool recycles output rasters between frames and scratchPool the
// per-render working state: pipelines render hundreds of frames of one
// geometry, so steady-state rendering should not allocate. sync.Pool
// keeps the reuse safe when several pipelines render concurrently.
var (
	framePool   sync.Pool
	scratchPool = sync.Pool{New: func() any { return new(renderScratch) }}
)

// acquireRGBA returns a w×h raster, reusing a pooled one when the
// geometry matches. Render overwrites every base pixel, so pooled
// rasters need no clearing.
func acquireRGBA(w, h int) *image.RGBA {
	if v := framePool.Get(); v != nil {
		img := v.(*image.RGBA)
		if img.Rect.Dx() == w && img.Rect.Dy() == h {
			return img
		}
	}
	return image.NewRGBA(image.Rect(0, 0, w, h))
}

// ReleaseFrame returns a raster obtained from Render to the frame pool
// once its pixels are no longer needed (typically after PNG encoding).
// The caller must not use img afterwards. Releasing is optional —
// unreleased frames are simply garbage-collected.
func ReleaseFrame(img *image.RGBA) {
	if img != nil {
		framePool.Put(img)
	}
}

// renderScratch is the working state Render reuses between calls.
type renderScratch struct {
	// Per-column resample state, precomputed once per render: every pixel
	// row uses the same horizontal sample positions, so the int(fx) and
	// weight math runs width times instead of width*height times.
	colX []int32
	colW []float64

	// t and slow are fillRow's per-row outputs: every pixel's
	// normalized value, and the pixels whose colour is not one pure
	// table entry.
	t    []float64
	slow []int32

	// segs is the contour segment buffer every isoline reuses.
	segs []Segment
}

// prepareColumns fills the per-column resample tables for a width-pixel
// row over an nx-cell field row (identical values to the per-pixel
// computation they replace), and sizes the row scratch. Every x0 lies
// in [0, nx-2] for nx >= 2.
func (rs *renderScratch) prepareColumns(width, nx int, sx float64) {
	if cap(rs.colX) < width {
		rs.colX = make([]int32, width)
		rs.colW = make([]float64, width)
		rs.t = make([]float64, width)
		rs.slow = make([]int32, width)
	}
	rs.colX = rs.colX[:width]
	rs.colW = rs.colW[:width]
	rs.t = rs.t[:width]
	rs.slow = rs.slow[:width]
	for px := 0; px < width; px++ {
		// The explicit conversion rounds the product, so no GOARCH
		// fuses it into fx - float64(x0) below.
		fx := float64(float64(px) * sx)
		x0 := int(fx)
		if x0 >= nx-1 {
			x0 = nx - 2
		}
		rs.colX[px] = int32(x0)
		rs.colW[px] = fx - float64(x0)
	}
}

// fill colormaps every pixel row of img: fillRow resamples the field
// bilinearly at the prepared columns and row step sy, normalizes to
// t = (v-lo)*inv and stores each pixel whose bucket is one pure table
// entry; the pixels it lists as slow get the clamps or the exact
// colour here.
func (rs *renderScratch) fill(img *image.RGBA, g *field.Grid, cm *Colormap, lo, inv, sy float64) {
	gnx := g.NX
	width := len(rs.colX)
	t, slow := rs.t, rs.slow
	first, last := cm.first, cm.last
	for py := 0; py < img.Rect.Dy(); py++ {
		fy := float64(float64(py) * sy) // rounded, as in prepareColumns
		y0 := int(fy)
		if y0 >= g.NY-1 {
			y0 = g.NY - 2
		}
		wy := fy - float64(y0)
		r0 := g.Data[y0*gnx : y0*gnx+gnx]
		r1 := g.Data[(y0+1)*gnx : (y0+1)*gnx+gnx]
		off := img.PixOffset(0, py)
		row := img.Pix[off : off+width*4]
		n := fillRow(row, t, slow, rs.colX, rs.colW, r0, r1, cm.table, 1-wy, wy, lo, inv)
		for _, px := range slow[:n] {
			var c uint32
			switch v := t[px]; {
			case v <= 0:
				c = first
			case v >= 1:
				c = last
			case math.IsNaN(v):
				panic(fmt.Sprintf("viz: pixel (%d, %d) normalizes to NaN: the field or its range holds a NaN", px, py))
			default:
				c = cm.lookup(v)
			}
			binary.LittleEndian.PutUint32(row[4*px:], c)
		}
	}
}

// fillRowPortable colours one pixel row, the first n = min(len(row)/4,
// len(t), len(slow), len(colX), len(colW)) pixels. For each pixel px it
// resamples rows r0 and r1 of the field at column colX[px] with weight
// colW[px], in the exact left-to-right form of the naive render, sets
// t[px] = (v-lo)*inv, and writes table[int(t*tableSize)] to the row
// when that index lies in [1, tableSize-1] and the entry is pure. It
// appends every other pixel (t <= 0 or in bucket 0, t >= 1, NaN, a
// mixed bucket) to slow, leaves its row bytes alone, and returns how
// many it appended. It is fillRow on GOARCHes without an assembly
// kernel, and the kernel's reference in the tests.
func fillRowPortable(row []byte, t []float64, slow []int32, colX []int32, colW []float64, r0, r1 []float64, table *[tableSize]uint32, omwy, wy, lo, inv float64) int {
	n := min(len(row)/4, len(t), len(slow), len(colX), len(colW))
	ns := 0
	for px := 0; px < n; px++ {
		x0 := int(colX[px])
		wx := colW[px]
		omwx := 1 - wx
		// Each product is rounded before the sum, so no GOARCH fuses
		// a multiply into an add.
		v := float64(omwx*omwy*r0[x0]) +
			float64(wx*omwy*r0[x0+1]) +
			float64(omwx*wy*r1[x0]) +
			float64(wx*wy*r1[x0+1])
		tv := (v - lo) * inv
		t[px] = tv
		if k := int(tv * tableSize); k >= 1 && k < tableSize {
			if e := table[k]; e >= 1<<24 {
				binary.LittleEndian.PutUint32(row[4*px:], e)
				continue
			}
		}
		slow[ns] = int32(px)
		ns++
	}
	return ns
}

// RenderOptions configures a frame render.
type RenderOptions struct {
	// Width, Height of the output raster.
	Width, Height int
	// Colormap for the field; nil means Inferno.
	Colormap *Colormap
	// Lo, Hi normalize the field; equal values auto-scale per frame.
	Lo, Hi float64
	// Isolines, when non-empty, overlays white marching-squares
	// contours at these field values.
	Isolines []float64
}

// isolineColor is the contour overlay's color.
var isolineColor = color.RGBA{255, 255, 255, 255}

// DefaultRenderOptions returns the pipelines' 512×512 auto-scaled
// inferno frame with three isolines.
func DefaultRenderOptions() RenderOptions {
	return RenderOptions{Width: 512, Height: 512}
}

// RenderStats reports the work a render performed, which the platform
// model converts to virtual time.
type RenderStats struct {
	Pixels       int // colormapped output pixels
	ContourCells int // marching-squares cells visited
	Segments     int // contour segments emitted
}

// Render rasterizes the field: bilinear resampling to Width×Height,
// colormap application, optional isoline overlay. An auto-scaled field
// whose cells are all equal renders in the colormap's first colour.
// The returned raster may come from the frame pool; hand it back with
// ReleaseFrame when done to keep steady-state rendering
// allocation-free. It panics on a field of fewer than 2×2 cells, which
// has nothing to resample, on a range whose span overflows a float64
// (such as −1e308 to 1e308) or that is infinite, and on a NaN in the
// field or the range.
func Render(g *field.Grid, opts RenderOptions) (*image.RGBA, RenderStats) {
	if opts.Width <= 0 || opts.Height <= 0 {
		panic(fmt.Sprintf("viz: render size %dx%d must be positive", opts.Width, opts.Height))
	}
	// fillRow reads the field at the prepared columns unchecked; they
	// lie inside it only from two cells on.
	if g.NX < 2 || g.NY < 2 {
		panic(fmt.Sprintf("viz: render needs a field of at least 2x2 cells, not %dx%d", g.NX, g.NY))
	}
	cm := opts.Colormap
	if cm == nil {
		cm = Inferno()
	}
	lo, hi := opts.Lo, opts.Hi
	if lo == hi {
		lo, hi = g.MinMax()
	}
	if math.IsInf(hi-lo, 0) || math.IsInf(lo, 0) {
		panic(fmt.Sprintf("viz: render range %g to %g overflows a float64", lo, hi))
	}
	flat := lo == hi
	if flat {
		// MinMax skips NaNs, so a field that is flat but for NaNs comes
		// out flat.
		if i := slices.IndexFunc(g.Data, math.IsNaN); i >= 0 {
			panic(fmt.Sprintf("viz: cell (%d, %d) of a flat field is NaN", i%g.NX, i/g.NX))
		}
	}

	img := acquireRGBA(opts.Width, opts.Height)
	rs := scratchPool.Get().(*renderScratch)
	if flat {
		// Every pixel takes the first colour: the blend of four equal
		// values can be off by an ulp or two, which no scale maps back
		// to t = 0.
		for i := 0; i < len(img.Pix); i += 4 {
			binary.LittleEndian.PutUint32(img.Pix[i:], cm.first)
		}
	} else {
		inv := 1 / (hi - lo)
		if math.IsInf(inv, 0) {
			// A span below about 2.2e-308 has no finite inverse: scale
			// by 1, or t at lo would be 0·Inf = NaN.
			inv = 1
		}
		rs.prepareColumns(opts.Width, g.NX, float64(g.NX-1)/float64(max(opts.Width-1, 1)))
		rs.fill(img, g, cm, lo, inv, float64(g.NY-1)/float64(max(opts.Height-1, 1)))
	}
	stats := RenderStats{Pixels: opts.Width * opts.Height}

	for _, level := range opts.Isolines {
		var cells int
		rs.segs, cells = MarchingSquaresInto(rs.segs[:0], g, level)
		stats.ContourCells += cells
		stats.Segments += len(rs.segs)
		scaleX := float64(opts.Width-1) / float64(g.NX-1)
		scaleY := float64(opts.Height-1) / float64(g.NY-1)
		for _, s := range rs.segs {
			// Rounded products, so no GOARCH fuses them into the + 0.5.
			drawLine(img,
				int(float64(s.X0*scaleX)+0.5), int(float64(s.Y0*scaleY)+0.5),
				int(float64(s.X1*scaleX)+0.5), int(float64(s.Y1*scaleY)+0.5),
				isolineColor)
		}
	}
	scratchPool.Put(rs)
	return img, stats
}

// drawLine rasterizes a Bresenham segment, clipped to the image.
func drawLine(img *image.RGBA, x0, y0, x1, y1 int, c color.RGBA) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	b := img.Bounds()
	for {
		if image.Pt(x0, y0).In(b) {
			img.SetRGBA(x0, y0, c)
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
