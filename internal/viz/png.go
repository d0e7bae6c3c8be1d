package viz

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
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
	trailer               [4]byte // the zlib stream's Adler-32, big-endian
	bw                    *bufio.Writer
	out                   []byte // the PNG being assembled
}

var pngEncoders = sync.Pool{New: func() any {
	e := new(pngEncoder)
	e.bw = bufio.NewWriterSize(e, 1<<15)
	e.dw = deflate.NewWriter(e.bw)
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
	if opaque(img) {
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
	sum := uint32(1) // the Adler-32 of the filtered rows
	for y := 0; y < h; y++ {
		src := img.Pix[y*img.Stride : y*img.Stride+4*w]
		if bpp == 3 {
			packRGB(e.cur[1:], src)
		} else {
			unpremultiply(e.cur[1:], src)
		}
		row := e.filter(bpp)
		sum = adlerUpdate(sum, row)
		if _, err := e.dw.Write(row); err != nil {
			return nil, err
		}
		e.cur, e.prev = e.prev, e.cur
	}
	if err := e.dw.Close(); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(e.trailer[:], sum)
	e.bw.Write(e.trailer[:])
	if err := e.bw.Flush(); err != nil {
		return nil, err
	}
	e.writeChunk("IEND", nil)
	blob := make([]byte, len(e.out))
	copy(blob, e.out)
	return blob, nil
}

// opaque reports whether every pixel of img has alpha 255, as
// img.Opaque() does. It ANDs each row eight pixels at a time, as four
// little-endian words that hold two pixels' alpha bytes each, and
// tests the last few pixels one by one.
func opaque(img *image.RGBA) bool {
	const alpha2 = 0xff000000ff000000
	w := 4 * img.Rect.Dx()
	for y := 0; y < img.Rect.Dy(); y++ {
		row := img.Pix[y*img.Stride : y*img.Stride+w]
		acc := uint64(alpha2)
		for ; len(row) >= 32; row = row[32:] {
			acc &= binary.LittleEndian.Uint64(row) & binary.LittleEndian.Uint64(row[8:]) &
				binary.LittleEndian.Uint64(row[16:]) & binary.LittleEndian.Uint64(row[24:])
		}
		if acc != alpha2 {
			return false
		}
		for ; len(row) >= 4; row = row[4:] {
			if row[3] != 0xff {
				return false
			}
		}
	}
	return true
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

// DecodePNG parses PNG bytes back into an image (used by tests and the
// quickstart example to validate frames).
func DecodePNG(data []byte) (image.Image, error) {
	return png.Decode(bytes.NewReader(data))
}
