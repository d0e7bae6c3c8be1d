package viz

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/deflate"
	"repro/internal/field"
)

// compressScratch recycles the per-call quantization buffer, the
// DEFLATE writer and its output buffer: in-situ compression runs once
// per visualization event, and a fresh deflate.Writer is a ~460 KiB
// allocation. A Reset writer produces byte-identical output to a fresh
// one. The writer only ever points at out, so it holds on to no blob
// a caller was given.
type compressScratch struct {
	raw []byte
	out bytes.Buffer
	dw  *deflate.Writer
}

var compressPool = sync.Pool{New: func() any { return new(compressScratch) }}

// CompressField implements application-driven field compression in the
// spirit of Wang et al. [22]: the field is quantized to 16-bit values
// over its own range (plenty for visualization) and the quantized
// buffer is DEFLATE-compressed, byte for byte as compress/flate does
// at BestSpeed. Smooth science fields compress well; the returned blob
// decompresses bit-exactly to the quantized field.
func CompressField(g *field.Grid) ([]byte, error) {
	lo, hi := g.MinMax()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	sc := compressPool.Get().(*compressScratch)
	defer compressPool.Put(sc)
	// Header: dims + range, then 16-bit quantized samples.
	need := 24 + len(g.Data)*2
	if cap(sc.raw) < need {
		sc.raw = make([]byte, need)
	}
	raw := sc.raw[:need]
	binary.LittleEndian.PutUint32(raw[0:], uint32(g.NX))
	binary.LittleEndian.PutUint32(raw[4:], uint32(g.NY))
	binary.LittleEndian.PutUint64(raw[8:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(raw[16:], math.Float64bits(hi))
	// Quantize, then delta-encode: neighbors in a smooth field differ by
	// a few quantization steps, so the delta stream is low-entropy and
	// DEFLATE bites hard.
	var prev uint16
	for i, v := range g.Data {
		q := uint16((v - lo) / span * 65535)
		binary.LittleEndian.PutUint16(raw[24+i*2:], q-prev)
		prev = q
	}
	sc.out.Reset()
	if sc.dw == nil {
		sc.dw = deflate.NewWriter(&sc.out)
	} else {
		sc.dw.Reset(&sc.out)
	}
	if _, err := sc.dw.Write(raw); err != nil {
		return nil, err
	}
	if err := sc.dw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(sc.out.Bytes()), nil
}

// DecompressField reverses CompressField, returning the quantized field
// (values within span/65535 of the originals).
func DecompressField(blob []byte) (*field.Grid, error) {
	r := flate.NewReader(bytes.NewReader(blob))
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("viz: decompress: %w", err)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if len(raw) < 24 {
		return nil, fmt.Errorf("viz: compressed field truncated")
	}
	nx := int(binary.LittleEndian.Uint32(raw[0:]))
	ny := int(binary.LittleEndian.Uint32(raw[4:]))
	lo := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(raw[16:]))
	if nx <= 0 || ny <= 0 || nx*ny > 1<<26 || len(raw) != 24+nx*ny*2 {
		return nil, fmt.Errorf("viz: compressed field header implausible (%dx%d, %d bytes)", nx, ny, len(raw))
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	g := field.New(nx, ny)
	var q uint16
	for i := range g.Data {
		q += binary.LittleEndian.Uint16(raw[24+i*2:])
		g.Data[i] = lo + float64(float64(q)/65535*span) // no fused multiply-add
	}
	return g, nil
}

// CompressionRatio compresses the field and reports original quantized
// bytes divided by compressed bytes (higher is better).
func CompressionRatio(g *field.Grid) (float64, error) {
	blob, err := CompressField(g)
	if err != nil {
		return 0, err
	}
	return float64(len(g.Data)*2) / float64(len(blob)), nil
}
