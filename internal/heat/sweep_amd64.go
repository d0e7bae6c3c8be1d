package heat

// sweepRow is the FTCS stencil over one row in SSE2 assembly
// (sweep_amd64.s), two cells per instruction. It does what
// sweepRowPortable does and writes the same bits, a NaN's payload
// aside. Every amd64 CPU has SSE2, so nothing is checked at run time.
//
//go:noescape
func sweepRow(o, c, up, dn []float64, rx, ry float64)
