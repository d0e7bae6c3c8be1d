package viz

import "encoding/binary"

// The SWAR ("SIMD within a register") helpers below treat a uint64 as
// eight independent byte lanes.
const (
	lanesHi  = 0x8080808080808080 // each lane's top bit
	lanesLo7 = 0x7f7f7f7f7f7f7f7f // each lane's low seven bits
	lanes01  = 0x0101010101010101 // 1 in each lane
	lanes16  = 0x00ff00ff00ff00ff // the low byte of each 16-bit lane
)

// sub8 is the lane-wise x−y mod 256, with no borrow between lanes.
func sub8(x, y uint64) uint64 {
	return ((x | lanesHi) - (y &^ lanesHi)) ^ ((x ^ ^y) & lanesHi)
}

// abs8 is the lane-wise |int8(d)|, 0..128.
func abs8(d uint64) uint64 {
	s := (d >> 7) & lanes01 // 1 in each negative lane
	return (d ^ s*0xff) + s
}

// less8 is 0xff in each lane where x < y as unsigned bytes, else 0.
func less8(x, y uint64) uint64 {
	ge := (x | lanesHi) - (y &^ lanesHi) // top bit: low seven bits of x >= y's
	lt := (^x & y) | (^(x ^ y) &^ ge)
	return (lt >> 7 & lanes01) * 0xff
}

// sum16 folds the lane-wise absolute residuals of d into acc's four
// 16-bit lanes: each gains at most 256 per call, so acc must be
// flushed within 255 calls.
func sum16(acc, d uint64) uint64 {
	a := abs8(d)
	return acc + a&lanes16 + a>>8&lanes16
}

// fold16 returns the sum of acc's four 16-bit lanes.
func fold16(acc uint64) int {
	t := acc&0x0000ffff0000ffff + acc>>16&0x0000ffff0000ffff
	return int(t&0xffffffff + t>>32)
}

// avg8 is the lane-wise floor((a+b)/2).
func avg8(a, b uint64) uint64 {
	return a&b + (a^b)>>1&lanesLo7
}

// absDiff8 returns |x−y| lane-wise as unsigned bytes, and less8(x, y).
func absDiff8(x, y uint64) (d, lt uint64) {
	lt = less8(x, y)
	t := (x ^ y) & lt
	return (x ^ t) - (y ^ t), lt // max − min: no lane borrows
}

// chooseFilter returns the filter image/png's filter() would pick for
// the current row cd under previous row pd, and writes the row's Paeth
// residuals to pth. image/png starts from Up and lets Paeth, None, Sub
// and Average in turn replace the best only on a strictly smaller sum
// of |int8| residuals; its early exits never change that choice
// because partial sums only grow, so full sums decided in the same
// order pick the same filter. The first bpp bytes (no left neighbour)
// and the tail after sumWords' last whole word are summed in scalar
// code, the rest by sumWords.
func chooseFilter(cd, pd, pth []byte, bpp int) int {
	n := len(cd)
	pd, pth = pd[:n], pth[:n]
	var sums [5]int // by filter type
	add := func(r [5]uint8) {
		for f, v := range r {
			sums[f] += absInt8(v)
		}
	}
	for i := 0; i < bpp; i++ {
		r := residuals(cd[i], 0, pd[i], 0)
		pth[i] = r[ftPaeth]
		add(r)
	}
	for i := sumWords(cd, pd, pth, bpp, &sums); i < n; i++ {
		r := residuals(cd[i], cd[i-bpp], pd[i], pd[i-bpp])
		pth[i] = r[ftPaeth]
		add(r)
	}

	f := ftUp
	for _, g := range [...]int{ftPaeth, ftNone, ftSub, ftAverage} {
		if sums[g] < sums[f] {
			f = g
		}
	}
	return f
}

// sumWordsSWAR is chooseFilter's word loop in portable Go, the
// sumWords of every GOARCH without an assembly kernel and the
// reference the kernel is tested against. From index bpp on, eight
// bytes at a time while a whole word remains, it adds the |int8|
// residuals of row cd under pd to sums, by filter type, writes the
// Paeth residuals to pth, and returns the index after the last word.
//
// It computes the Paeth predictor of each lane without branches. With
// pa = |b−c| and pb = |a−c| as unsigned bytes, pc = |(b−c)+(a−c)| is
// |pa−pb| when b−c and a−c have opposite signs, and pa+pb ≥ max(pa, pb)
// otherwise; there it saturates to 255, which still lets c win
// nowhere. The selection follows lodepng's order — b if pb < pa, then
// c if pc is below the best so far — which picks what image/png's
// scalar rule picks, ties included. (Which of a and b wins a tie
// pa = pb never matters: it means a = b, or pc = 0 and c wins.)
func sumWordsSWAR(cd, pd, pth []byte, bpp int, sums *[5]int) int {
	n := len(cd)
	pd, pth = pd[:n], pth[:n]
	i := bpp
	for i+8 <= n {
		// Each 16-bit accumulator lane gains at most 256 per word.
		end := min(i+255*8, n-(n-i)%8)
		var sNone, sSub, sUp, sAvg, sPaeth uint64
		for ; i+8 <= end; i += 8 {
			x := binary.LittleEndian.Uint64(cd[i:])
			b := binary.LittleEndian.Uint64(pd[i:])
			a := binary.LittleEndian.Uint64(cd[i-bpp:])
			c := binary.LittleEndian.Uint64(pd[i-bpp:])

			pa, mbc := absDiff8(b, c)
			pb, mac := absDiff8(a, c)
			pc, mba := absDiff8(pb, pa)
			pc |= ^(mbc ^ mac)
			pred := a ^ (a^b)&mba // b where pb < pa
			best := pa ^ (pa^pb)&mba
			pred ^= (pred ^ c) & less8(pc, best)
			p := sub8(x, pred)
			binary.LittleEndian.PutUint64(pth[i:], p)

			sNone = sum16(sNone, x)
			sSub = sum16(sSub, sub8(x, a))
			sUp = sum16(sUp, sub8(x, b))
			sAvg = sum16(sAvg, sub8(x, avg8(a, b)))
			sPaeth = sum16(sPaeth, p)
		}
		sums[ftNone] += fold16(sNone)
		sums[ftSub] += fold16(sSub)
		sums[ftUp] += fold16(sUp)
		sums[ftAverage] += fold16(sAvg)
		sums[ftPaeth] += fold16(sPaeth)
	}
	return i
}

// applyFilter writes the current row cd filtered with Sub, Up or
// Average into dst.
func applyFilter(f int, cd, pd, dst []byte, bpp int) {
	n := len(cd)
	pd, dst = pd[:n], dst[:n]
	for i := 0; i < bpp; i++ {
		dst[i] = residuals(cd[i], 0, pd[i], 0)[f]
	}
	i := bpp
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(cd[i:])
		b := binary.LittleEndian.Uint64(pd[i:])
		a := binary.LittleEndian.Uint64(cd[i-bpp:])
		switch f {
		case ftSub:
			b = a
		case ftAverage:
			b = avg8(a, b)
		}
		binary.LittleEndian.PutUint64(dst[i:], sub8(x, b))
	}
	for ; i < n; i++ {
		dst[i] = residuals(cd[i], cd[i-bpp], pd[i], pd[i-bpp])[f]
	}
}

// residuals returns the five filters' residuals of byte x, indexed by
// filter type, given its left (a), upper (b) and upper-left (c)
// neighbours; a and c are 0 in a row's first pixel.
func residuals(x, a, b, c uint8) [5]uint8 {
	return [5]uint8{
		ftNone:    x,
		ftSub:     x - a,
		ftUp:      x - b,
		ftAverage: x - uint8((int(a)+int(b))/2),
		ftPaeth:   x - paethScalar(a, b, c),
	}
}

// absInt8 is |int8(d)|.
func absInt8(d uint8) int {
	if d < 128 {
		return int(d)
	}
	return 256 - int(d)
}

// paethScalar is the PNG spec's Paeth predictor, as image/png writes
// it.
func paethScalar(a, b, c uint8) uint8 {
	pc := int(c)
	pa := int(b) - pc
	pb := int(a) - pc
	pc = abs(pa + pb)
	pa = abs(pa)
	pb = abs(pb)
	if pa <= pb && pa <= pc {
		return a
	} else if pb <= pc {
		return b
	}
	return c
}
