//go:build !amd64

package viz

// adlerBlocks adds p to the Adler-32 sums. Without an assembly kernel
// it is the scalar loop.
func adlerBlocks(s1, s2 uint32, p []byte) (uint32, uint32) {
	return adlerBytes(s1, s2, p)
}
