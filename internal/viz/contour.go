package viz

import "repro/internal/field"

// Segment is one isoline piece in grid coordinates (cell units).
type Segment struct {
	X0, Y0, X1, Y1 float64
}

// MarchingSquares extracts the isocontour of the field at the given
// level as line segments, returning the segments and the number of
// cells visited (the stage's work unit).
func MarchingSquares(g *field.Grid, level float64) ([]Segment, int) {
	return MarchingSquaresInto(nil, g, level)
}

// Cell edges, the coordinates a contour segment endpoint can lie on.
const (
	edgeTop = iota
	edgeBottom
	edgeLeft
	edgeRight
	edgeNone = 255
)

// msTable maps a cell's corner classification (tl<<3 | tr<<2 | br<<1 |
// bl) to the edges its contour segment crosses, endpoint order
// included. The ambiguous saddles (5 and 10) emit two segments and are
// resolved against the cell-center average at scan time.
var msTable = [16][2]uint8{
	0:  {edgeNone, edgeNone},
	1:  {edgeLeft, edgeBottom},  // bl isolated
	2:  {edgeBottom, edgeRight}, // br isolated
	3:  {edgeLeft, edgeRight},   // bottom half
	4:  {edgeTop, edgeRight},    // tr isolated
	5:  {edgeNone, edgeNone},    // saddle: tl+br
	6:  {edgeTop, edgeBottom},   // right half
	7:  {edgeLeft, edgeTop},     // tl isolated (inverted)
	8:  {edgeLeft, edgeTop},     // tl isolated
	9:  {edgeTop, edgeBottom},   // left half
	10: {edgeNone, edgeNone},    // saddle: tr+bl
	11: {edgeTop, edgeRight},
	12: {edgeLeft, edgeRight}, // top half
	13: {edgeBottom, edgeRight},
	14: {edgeLeft, edgeBottom},
	15: {edgeNone, edgeNone},
}

// MarchingSquaresInto is MarchingSquares appending into dst, letting
// render loops reuse one segment buffer across frames instead of
// growing a fresh slice per isoline. Cells are scanned in ascending
// (y, x) order.
//
// The scan classifies each cell with the msTable lookup and hoists the
// two corner rows into slices, so the common empty/full cells cost four
// comparisons and a table read with no per-cell closures or At calls.
func MarchingSquaresInto(dst []Segment, g *field.Grid, level float64) ([]Segment, int) {
	segs := dst
	nx := g.NX
	for y := 0; y < g.NY-1; y++ {
		rowT := g.Data[y*nx : y*nx+nx]
		rowB := g.Data[(y+1)*nx : (y+1)*nx+nx]
		fy := float64(y)
		fy1 := float64(y + 1)
		tl, bl := rowT[0], rowB[0]
		for x := 0; x < nx-1; x++ {
			tr := rowT[x+1]
			br := rowB[x+1]

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
			if idx != 0 && idx != 15 {
				e := msTable[idx]
				if e[0] != edgeNone {
					segs = append(segs, Segment{})
					s := &segs[len(segs)-1]
					s.X0, s.Y0 = edgePoint(e[0], x, fy, fy1, tl, tr, bl, br, level)
					s.X1, s.Y1 = edgePoint(e[1], x, fy, fy1, tl, tr, bl, br, level)
				} else {
					// Saddle: two segments, disambiguated by the center.
					var a, b [2]uint8
					if center := (tl + tr + br + bl) / 4; idx == 5 {
						if center >= level {
							a = [2]uint8{edgeLeft, edgeTop}
							b = [2]uint8{edgeBottom, edgeRight}
						} else {
							a = [2]uint8{edgeLeft, edgeBottom}
							b = [2]uint8{edgeTop, edgeRight}
						}
					} else if center >= level {
						a = [2]uint8{edgeTop, edgeRight}
						b = [2]uint8{edgeLeft, edgeBottom}
					} else {
						a = [2]uint8{edgeLeft, edgeTop}
						b = [2]uint8{edgeBottom, edgeRight}
					}
					var s Segment
					s.X0, s.Y0 = edgePoint(a[0], x, fy, fy1, tl, tr, bl, br, level)
					s.X1, s.Y1 = edgePoint(a[1], x, fy, fy1, tl, tr, bl, br, level)
					segs = append(segs, s)
					s.X0, s.Y0 = edgePoint(b[0], x, fy, fy1, tl, tr, bl, br, level)
					s.X1, s.Y1 = edgePoint(b[1], x, fy, fy1, tl, tr, bl, br, level)
					segs = append(segs, s)
				}
			}
			tl, bl = tr, br
		}
	}
	return segs, (g.NY - 1) * (nx - 1)
}

// edgePoint returns the interpolated contour crossing on one cell edge.
func edgePoint(e uint8, x int, fy, fy1, tl, tr, bl, br, level float64) (float64, float64) {
	switch e {
	case edgeTop:
		return float64(x) + frac(tl, tr, level), fy
	case edgeBottom:
		return float64(x) + frac(bl, br, level), fy1
	case edgeLeft:
		return float64(x), fy + frac(tl, bl, level)
	default:
		return float64(x + 1), fy + frac(tr, br, level)
	}
}

// frac returns the interpolation fraction where the level crosses
// between a and b, clamped to [0, 1].
func frac(a, b, level float64) float64 {
	if a == b {
		return 0.5
	}
	f := (level - a) / (b - a)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
