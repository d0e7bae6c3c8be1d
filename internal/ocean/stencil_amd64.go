package ocean

// momentumRow and continuityRow are the shallow-water row updates in
// SSE2 assembly (stencil_amd64.s), two cells per instruction. They do
// what momentumRowPortable and continuityRowPortable do and write the
// same bits, a NaN's payload aside. Every amd64 CPU has SSE2, so
// nothing is checked at run time.
//
//go:noescape
func momentumRow(nu, nv, h, hup, hdn, u, v []float64, gdtx, gdty, f float64)

//go:noescape
func continuityRow(nh, h, u, vup, vdn []float64, hdtx, hdty float64)
