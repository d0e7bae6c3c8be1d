package viz

// Adler-32 (RFC 1950), the checksum that ends the zlib stream of a PNG.
const (
	adlerMod = 65521 // the largest prime below 2¹⁶

	// adlerMax is the most bytes that can be added to sums below
	// adlerMod before s2 may overflow 32 bits: the largest n with
	// 255·n(n+1)/2 + (n+1)·(adlerMod−1) < 2³². It is a multiple of 16.
	adlerMax = 5552
)

// adlerUpdate returns the Adler-32 of the bytes summed into d followed
// by p, as hash/adler32 computes it; the checksum of no bytes is 1.
// It adds each adlerMax-byte chunk of p sixteen bytes at a time with
// adlerBlocks, then the chunk's last few bytes one at a time, and
// reduces both sums modulo adlerMod after every chunk.
func adlerUpdate(d uint32, p []byte) uint32 {
	s1, s2 := d&0xffff, d>>16
	for len(p) > 0 {
		n := min(len(p), adlerMax)
		s1, s2 = adlerBlocks(s1, s2, p[:n&^15])
		s1, s2 = adlerBytes(s1, s2, p[n&^15:n])
		s1 %= adlerMod
		s2 %= adlerMod
		p = p[n:]
	}
	return s2<<16 | s1
}

// adlerBytes adds p to the sums one byte at a time, without reducing
// them.
func adlerBytes(s1, s2 uint32, p []byte) (uint32, uint32) {
	for _, x := range p {
		s1 += uint32(x)
		s2 += s1
	}
	return s1, s2
}
