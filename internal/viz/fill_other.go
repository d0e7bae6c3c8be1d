//go:build !amd64

package viz

// fillRow is the render fill's pixel loop. Without an assembly kernel
// it is the portable loop.
func fillRow(row []byte, t []float64, slow []int32, colX []int32, colW []float64, r0, r1 []float64, table *[tableSize]uint32, omwy, wy, lo, inv float64) int {
	return fillRowPortable(row, t, slow, colX, colW, r0, r1, table, omwy, wy, lo, inv)
}
