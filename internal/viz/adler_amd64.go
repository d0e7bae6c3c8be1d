package viz

// adlerBlocks adds p, a whole number of 16-byte blocks, to the Adler-32
// sums without reducing them, as adlerBytes does, in SSE2 assembly
// (adler_amd64.s), sixteen bytes per step. The caller keeps the sums
// below 2³²: s1 and s2 below adlerMod and len(p) at most adlerMax.
//
//go:noescape
func adlerBlocks(s1, s2 uint32, p []byte) (uint32, uint32)
