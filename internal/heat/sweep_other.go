//go:build !amd64

package heat

// sweepRow is the FTCS stencil over one row. Without an assembly
// kernel it is the portable loop.
func sweepRow(o, c, up, dn []float64, rx, ry float64) {
	sweepRowPortable(o, c, up, dn, rx, ry)
}
