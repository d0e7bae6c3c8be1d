package viz

// sumWords is chooseFilter's word loop in SSE2 assembly
// (filter_amd64.s), sixteen bytes per step; it does what sumWordsSWAR
// does, and writes the same Paeth residuals and sums. Every amd64 CPU
// has SSE2, so nothing is checked at run time. It reads and writes
// within the first min(len(cd), len(pd), len(pth)) bytes only, and
// does nothing for a negative bpp.
//
//go:noescape
func sumWords(cd, pd, pth []byte, bpp int, sums *[5]int) int
