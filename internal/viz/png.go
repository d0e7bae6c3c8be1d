package viz

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/adler32"
	"hash/crc32"
	"image"
	"image/png"
	"sync"

	"repro/internal/deflate"
)

// PNG filter types (PNG spec §9.2) and the IHDR colour types EncodePNG
// writes.
const (
	ftNone    = 0
	ftSub     = 1
	ftUp      = 2
	ftAverage = 3
	ftPaeth   = 4

	ctTrueColor      = 2
	ctTrueColorAlpha = 6

	pngSignature = "\x89PNG\r\n\x1a\n"

	// zlibHeader is the RFC 1950 header compress/zlib writes at
	// BestSpeed: deflate with a 32 KiB window, FLEVEL 0, no dictionary.
	zlibHeader = "\x78\x01"
)

// pngEncoder is the working state of one frame encode, pooled so that
// steady-state encoding allocates only the returned blob. cur and prev
// hold the unfiltered current and previous rows, paeth the Paeth
// residuals the filter chooser writes while it sums, and alt any other
// winning filter's residuals; each starts with its filter-type byte.
// The zlib stream is image/png's: the zlib header, deflate.Writer
// (compress/flate's BestSpeed bytes) and the Adler-32 trailer, fed to
// a 32 KiB bufio.Writer whose every flush becomes one IDAT chunk.
// deflate.Writer hands each stored block over in one Write, as
// compress/flate does, so chunk boundaries come out the same.
type pngEncoder struct {
	cur, prev, paeth, alt []byte
	dw                    *deflate.Writer
	sum                   hash.Hash32 // Adler-32 of the filtered rows
	trailer               [4]byte     // the zlib stream's Adler-32, big-endian
	bw                    *bufio.Writer
	out                   []byte // the PNG being assembled
}

var pngEncoders = sync.Pool{New: func() any {
	e := new(pngEncoder)
	e.bw = bufio.NewWriterSize(e, 1<<15)
	e.dw = deflate.NewWriter(e.bw)
	e.sum = adler32.New()
	return e
}}

// EncodePNG serializes a frame to PNG bytes — the artifact both
// pipelines write to disk per visualization event. The bytes equal
// those of image/png's Encoder at BestSpeed for every *image.RGBA:
// colour type 2 (RGB) when the frame is opaque, 6 (un-premultiplied
// RGBA) otherwise, the same per-row filter choice, the same zlib
// stream and IDAT chunking. Per-frame allocation is the returned blob.
func EncodePNG(img *image.RGBA) ([]byte, error) {
	w, h := img.Rect.Dx(), img.Rect.Dy()
	if w <= 0 || h <= 0 || int64(w) >= 1<<32 || int64(h) >= 1<<32 {
		return nil, fmt.Errorf("viz: cannot encode a %dx%d PNG", w, h)
	}
	e := pngEncoders.Get().(*pngEncoder)
	defer pngEncoders.Put(e)
	return e.encode(img, w, h)
}

func (e *pngEncoder) encode(img *image.RGBA, w, h int) ([]byte, error) {
	bpp, colorType := 4, byte(ctTrueColorAlpha)
	if img.Opaque() {
		bpp, colorType = 3, ctTrueColor
	}
	n := 1 + bpp*w
	e.cur = resizeRow(e.cur, n, ftNone)
	e.prev = resizeRow(e.prev, n, ftNone)
	clear(e.prev)
	e.paeth = resizeRow(e.paeth, n, ftPaeth)
	e.alt = resizeRow(e.alt, n, ftNone)

	e.out = append(e.out[:0], pngSignature...)
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:4], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:8], uint32(h))
	ihdr[8] = 8 // bit depth; compression, filter and interlace methods stay 0
	ihdr[9] = colorType
	e.writeChunk("IHDR", ihdr[:])

	// e.Write never fails, and bufio would keep an error for Flush, so
	// the direct writes to e.bw below go unchecked.
	e.bw.Reset(e)
	e.bw.WriteString(zlibHeader)
	e.dw.Reset(e.bw)
	e.sum.Reset()
	for y := 0; y < h; y++ {
		src := img.Pix[y*img.Stride : y*img.Stride+4*w]
		if bpp == 3 {
			packRGB(e.cur[1:], src)
		} else {
			unpremultiply(e.cur[1:], src)
		}
		row := e.filter(bpp)
		e.sum.Write(row) // a hash.Hash never returns an error
		if _, err := e.dw.Write(row); err != nil {
			return nil, err
		}
		e.cur, e.prev = e.prev, e.cur
	}
	if err := e.dw.Close(); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(e.trailer[:], e.sum.Sum32())
	e.bw.Write(e.trailer[:])
	if err := e.bw.Flush(); err != nil {
		return nil, err
	}
	e.writeChunk("IEND", nil)
	blob := make([]byte, len(e.out))
	copy(blob, e.out)
	return blob, nil
}

// resizeRow returns a row buffer of length n whose first byte is the
// filter type ft.
func resizeRow(row []byte, n int, ft byte) []byte {
	if cap(row) < n {
		row = make([]byte, n)
	}
	row = row[:n]
	row[0] = ft
	return row
}

// Write appends b to the PNG as one IDAT chunk. Only e.bw calls it.
func (e *pngEncoder) Write(b []byte) (int, error) {
	e.writeChunk("IDAT", b)
	return len(b), nil
}

// writeChunk appends a chunk: length, type, data, and the CRC of type
// and data.
func (e *pngEncoder) writeChunk(name string, data []byte) {
	e.out = binary.BigEndian.AppendUint32(e.out, uint32(len(data)))
	start := len(e.out)
	e.out = append(e.out, name...)
	e.out = append(e.out, data...)
	e.out = binary.BigEndian.AppendUint32(e.out, crc32.Update(0, crc32.IEEETable, e.out[start:]))
}

// packRGB copies the R, G, B bytes of each RGBA pixel of src into dst,
// eight pixels (32 bytes in, 24 out) per step where it can.
func packRGB(dst, src []byte) {
	for len(src) >= 32 && len(dst) >= 24 {
		q0 := rgb2(binary.LittleEndian.Uint64(src[0:]))
		q1 := rgb2(binary.LittleEndian.Uint64(src[8:]))
		q2 := rgb2(binary.LittleEndian.Uint64(src[16:]))
		q3 := rgb2(binary.LittleEndian.Uint64(src[24:]))
		binary.LittleEndian.PutUint64(dst[0:], q0|q1<<48)
		binary.LittleEndian.PutUint64(dst[8:], q1>>16|q2<<32)
		binary.LittleEndian.PutUint64(dst[16:], q2>>32|q3<<16)
		src, dst = src[32:], dst[24:]
	}
	for len(src) >= 4 && len(dst) >= 3 {
		dst[0], dst[1], dst[2] = src[0], src[1], src[2]
		src, dst = src[4:], dst[3:]
	}
}

// rgb2 moves the R, G, B bytes of the two RGBA pixels in little-endian
// v into its low 48 bits.
func rgb2(v uint64) uint64 {
	return v&0xffffff | v>>8&0xffffff000000
}

// unpremultiply converts alpha-premultiplied RGBA pixels to PNG's
// straight alpha exactly as image/png does: alpha 0 gives zeros,
// alpha 255 a copy, and otherwise each channel becomes
// (c·0x101·0xffff / (a·0x101)) >> 8, truncated to a byte.
func unpremultiply(dst, src []byte) {
	dst = dst[:len(src)]
	for j := 0; j+4 <= len(src) && j+4 <= len(dst); j += 4 {
		s, d := src[j:j+4:j+4], dst[j:j+4:j+4]
		switch s[3] {
		case 0:
			d[0], d[1], d[2], d[3] = 0, 0, 0, 0
		case 0xff:
			copy(d, s)
		default:
			const m = 0x101 * 0xffff
			a := uint32(s[3]) * 0x101
			d[0] = uint8((uint32(s[0]) * m / a) >> 8)
			d[1] = uint8((uint32(s[1]) * m / a) >> 8)
			d[2] = uint8((uint32(s[2]) * m / a) >> 8)
			d[3] = s[3]
		}
	}
}

// filter picks the current row's filter and returns the row to
// deflate, filter-type byte first.
func (e *pngEncoder) filter(bpp int) []byte {
	switch f := chooseFilter(e.cur[1:], e.prev[1:], e.paeth[1:], bpp); f {
	case ftNone:
		return e.cur
	case ftPaeth:
		return e.paeth
	default:
		e.alt[0] = byte(f)
		applyFilter(f, e.cur[1:], e.prev[1:], e.alt[1:], bpp)
		return e.alt
	}
}

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
// and the tail after the last whole word are summed in scalar code;
// the rest eight bytes at a time.
//
// The word loop computes the Paeth predictor of each lane without
// branches. With pa = |b−c| and pb = |a−c| as unsigned bytes,
// pc = |(b−c)+(a−c)| is |pa−pb| when b−c and a−c have opposite signs,
// and pa+pb ≥ max(pa, pb) otherwise; there it saturates to 255, which
// still lets c win nowhere. The selection follows lodepng's order — b
// if pb < pa, then c if pc is below the best so far — which picks what
// image/png's scalar rule picks, ties included. (Which of a and b wins
// a tie pa = pb never matters: it means a = b, or pc = 0 and c wins.)
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
	for ; i < n; i++ {
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

// DecodePNG parses PNG bytes back into an image (used by tests and the
// quickstart example to validate frames).
func DecodePNG(data []byte) (image.Image, error) {
	return png.Decode(bytes.NewReader(data))
}
