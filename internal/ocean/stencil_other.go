//go:build !amd64

package ocean

// momentumRow is the momentum update over one row. Without an assembly
// kernel it is the portable loop.
func momentumRow(nu, nv, h, hup, hdn, u, v []float64, gdtx, gdty, f float64) {
	momentumRowPortable(nu, nv, h, hup, hdn, u, v, gdtx, gdty, f)
}

// continuityRow is the continuity update over one row. Without an
// assembly kernel it is the portable loop.
func continuityRow(nh, h, u, vup, vdn []float64, hdtx, hdty float64) {
	continuityRowPortable(nh, h, u, vup, vdn, hdtx, hdty)
}
