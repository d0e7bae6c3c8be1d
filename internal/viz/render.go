package viz

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"sync"

	"repro/internal/heat"
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

	// segs is the contour segment buffer every isoline reuses.
	segs []Segment
}

// prepareColumns fills the per-column resample tables for a width-pixel
// row over an nx-cell field row (identical values to the per-pixel
// computation they replace).
func (rs *renderScratch) prepareColumns(width, nx int, sx float64) {
	if cap(rs.colX) < width {
		rs.colX = make([]int32, width)
		rs.colW = make([]float64, width)
	}
	rs.colX = rs.colX[:width]
	rs.colW = rs.colW[:width]
	for px := 0; px < width; px++ {
		fx := float64(px) * sx
		x0 := int(fx)
		if x0 >= nx-1 {
			x0 = nx - 2
		}
		rs.colX[px] = int32(x0)
		rs.colW[px] = fx - float64(x0)
	}
}

// fill colormaps every pixel row of img: bilinear field resample at
// the prepared columns and row step sy, then the colormap lookup of
// (v-lo)*inv, stored as one 32-bit word per pixel. The per-row field
// and Pix slices keep the inner loop free of offset math and interface
// dispatch; the blend expression is the exact left-to-right form of
// the naive version, so output bytes are unchanged.
func (rs *renderScratch) fill(img *image.RGBA, g *heat.Grid, cm *Colormap, lo, inv, sy float64) {
	gnx := g.NX
	colX, colW := rs.colX, rs.colW
	width := len(colX)
	first, last := cm.first, cm.last
	for py := 0; py < img.Rect.Dy(); py++ {
		fy := float64(py) * sy
		y0 := int(fy)
		if y0 >= g.NY-1 {
			y0 = g.NY - 2
		}
		wy := fy - float64(y0)
		omwy := 1 - wy
		r0 := g.Data[y0*gnx : y0*gnx+gnx]
		r1 := g.Data[(y0+1)*gnx : (y0+1)*gnx+gnx]
		off := img.PixOffset(0, py)
		row := img.Pix[off : off+width*4]
		for px := 0; px < width; px++ {
			x0 := int(colX[px])
			wx := colW[px]
			omwx := 1 - wx
			v := omwx*omwy*r0[x0] +
				wx*omwy*r0[x0+1] +
				omwx*wy*r1[x0] +
				wx*wy*r1[x0+1]
			var c uint32
			switch t := (v - lo) * inv; {
			case t <= 0:
				c = first
			case t >= 1:
				c = last
			default:
				c = cm.lookup(t)
			}
			binary.LittleEndian.PutUint32(row[4*px:], c)
		}
	}
}

// RenderOptions configures a frame render.
type RenderOptions struct {
	// Width, Height of the output raster.
	Width, Height int
	// Colormap for the field; nil means Inferno.
	Colormap *Colormap
	// Lo, Hi normalize the field; equal values auto-scale per frame.
	Lo, Hi float64
	// Isolines, when non-empty, overlays marching-squares contours at
	// these field values.
	Isolines []float64
	// IsolineColor is the overlay color (default white).
	IsolineColor color.RGBA
}

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
// colormap application, optional isoline overlay. The returned raster
// may come from the frame pool; hand it back with ReleaseFrame when
// done to keep steady-state rendering allocation-free.
func Render(g *heat.Grid, opts RenderOptions) (*image.RGBA, RenderStats) {
	if opts.Width <= 0 || opts.Height <= 0 {
		panic(fmt.Sprintf("viz: render size %dx%d must be positive", opts.Width, opts.Height))
	}
	cm := opts.Colormap
	if cm == nil {
		cm = Inferno()
	}
	lo, hi := opts.Lo, opts.Hi
	if lo == hi {
		lo, hi = g.MinMax()
		if lo == hi { // flat field
			hi = lo + 1
		}
	}
	inv := 1 / (hi - lo)

	img := acquireRGBA(opts.Width, opts.Height)
	rs := scratchPool.Get().(*renderScratch)
	rs.prepareColumns(opts.Width, g.NX, float64(g.NX-1)/float64(max(opts.Width-1, 1)))
	rs.fill(img, g, cm, lo, inv, float64(g.NY-1)/float64(max(opts.Height-1, 1)))
	stats := RenderStats{Pixels: opts.Width * opts.Height}

	lineColor := opts.IsolineColor
	if lineColor.A == 0 {
		lineColor = color.RGBA{255, 255, 255, 255}
	}
	for _, level := range opts.Isolines {
		var cells int
		rs.segs, cells = MarchingSquaresInto(rs.segs[:0], g, level)
		stats.ContourCells += cells
		stats.Segments += len(rs.segs)
		scaleX := float64(opts.Width-1) / float64(g.NX-1)
		scaleY := float64(opts.Height-1) / float64(g.NY-1)
		for _, s := range rs.segs {
			drawLine(img,
				int(s.X0*scaleX+0.5), int(s.Y0*scaleY+0.5),
				int(s.X1*scaleX+0.5), int(s.Y1*scaleY+0.5),
				lineColor)
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
