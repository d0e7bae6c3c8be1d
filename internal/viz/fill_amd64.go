package viz

// fillRow is the render fill's pixel loop in SSE2 assembly
// (fill_amd64.s), two pixels per instruction; it does what
// fillRowPortable does, and writes the same t (a NaN's payload aside),
// slow list and pixels.
// Every amd64 CPU has SSE2, so nothing is checked at run time. It
// writes within the first min(len(row)/4, len(t), len(slow),
// len(colX), len(colW)) pixels only, and reads r0 and r1 at colX[px]
// and colX[px]+1 unchecked: the caller keeps both in range.
//
//go:noescape
func fillRow(row []byte, t []float64, slow []int32, colX []int32, colW []float64, r0, r1 []float64, table *[tableSize]uint32, omwy, wy, lo, inv float64) int
