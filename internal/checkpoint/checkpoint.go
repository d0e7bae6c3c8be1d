// Package checkpoint defines the binary on-disk format the proxy
// application writes each I/O event and the post-processing pipeline
// reads back: a fixed header, the raw temperature field (CRC-protected),
// and a bulk time-history payload.
//
// The header and field are real bytes that round-trip through the
// simulated filesystem; the history payload — the bulk of a checkpoint,
// whose values the visualizer never consumes — is written sparsely so a
// 200 MiB checkpoint costs 200 MiB of simulated I/O without 200 MiB of
// host RAM.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/field"
	"repro/internal/storage"
	"repro/internal/units"
)

// Magic identifies a checkpoint file.
const Magic = "GVCKPT01"

// HeaderSize is the fixed encoded header length in bytes.
const HeaderSize = 8 + 4 + 8 + 8 + 4 + 4 + 8 + 4

// Header describes one checkpoint.
type Header struct {
	Version      uint32
	Step         uint64  // solver sub-steps at capture time
	SimTime      float64 // simulated physical time
	NX, NY       uint32
	PayloadBytes uint64 // bulk history payload length
	// GridCRC is the CRC-32 (IEEE) of the encoded header fields (all
	// bytes before this one) followed by the encoded field, so a bit
	// flip anywhere in the retained prefix — Step and SimTime included,
	// which annotate the rendered frames — is detected, not rendered.
	GridCRC uint32
}

// crcOffset is where GridCRC sits in the encoded header; the CRC
// covers everything before it plus the grid bytes.
const crcOffset = HeaderSize - 4

// prefixCRC computes the checksum of an encoded header (minus its CRC
// field) and grid.
func prefixCRC(header, grid []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(header[:crcOffset]), crc32.IEEETable, grid)
}

// ErrCorrupt reports a failed magic, bounds, or CRC check.
var ErrCorrupt = errors.New("checkpoint: corrupt data")

// putHeader serializes h (little-endian, fixed layout) into dst, which
// must hold at least HeaderSize bytes.
func putHeader(dst []byte, h Header) {
	copy(dst[0:8], Magic)
	le := binary.LittleEndian
	le.PutUint32(dst[8:], h.Version)
	le.PutUint64(dst[12:], h.Step)
	le.PutUint64(dst[20:], math.Float64bits(h.SimTime))
	le.PutUint32(dst[28:], h.NX)
	le.PutUint32(dst[32:], h.NY)
	le.PutUint64(dst[36:], h.PayloadBytes)
	le.PutUint32(dst[44:], h.GridCRC)
}

// encodeHeader serializes h into a fresh buffer.
func encodeHeader(h Header) []byte {
	out := make([]byte, HeaderSize)
	putHeader(out, h)
	return out
}

// decodeHeader parses and validates a header.
func decodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(b))
	}
	if string(b[:8]) != Magic {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:8])
	}
	le := binary.LittleEndian
	return Header{
		Version:      le.Uint32(b[8:]),
		Step:         le.Uint64(b[12:]),
		SimTime:      math.Float64frombits(le.Uint64(b[20:])),
		NX:           le.Uint32(b[28:]),
		NY:           le.Uint32(b[32:]),
		PayloadBytes: le.Uint64(b[36:]),
		GridCRC:      le.Uint32(b[44:]),
	}, nil
}

// decodeGrid reconstructs a field from encoded bytes.
func decodeGrid(b []byte, nx, ny int) *field.Grid {
	g := field.New(nx, ny)
	for i := range g.Data {
		g.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return g
}

// Encoder serializes checkpoints while reusing one header+grid scratch
// buffer across events, so a pipeline writing hundreds of ~128 KiB
// field snapshots allocates the encode buffer once instead of per
// event. The zero value is ready to use. An Encoder is not safe for
// concurrent use; give each writer (each pipeline run) its own.
type Encoder struct {
	prefix []byte // header + encoded grid scratch, reused across events
}

// encodePrefixInto rebuilds e.prefix for the given event and returns
// it. The returned slice is owned by e and valid until the next call.
func (e *Encoder) encodePrefixInto(g *field.Grid, step uint64, simTime float64, payload units.Bytes) []byte {
	if payload < 0 {
		panic("checkpoint: negative payload size")
	}
	need := HeaderSize + g.NX*g.NY*8
	if cap(e.prefix) < need {
		e.prefix = make([]byte, need)
	}
	e.prefix = e.prefix[:need]
	putHeader(e.prefix, Header{
		Version:      1,
		Step:         step,
		SimTime:      simTime,
		NX:           uint32(g.NX),
		NY:           uint32(g.NY),
		PayloadBytes: uint64(payload),
	})
	// Advancing equal-stride windows instead of indexing grid[i*8:]
	// keeps the stores bounds-check-free, and the 4-wide unroll with
	// constant offsets amortizes the slice advance; the byte layout is
	// exactly the per-cell PutUint64 loop's.
	grid := e.prefix[HeaderSize:]
	out, vals := grid, g.Data
	le := binary.LittleEndian
	for len(vals) >= 4 {
		le.PutUint64(out[0:8], math.Float64bits(vals[0]))
		le.PutUint64(out[8:16], math.Float64bits(vals[1]))
		le.PutUint64(out[16:24], math.Float64bits(vals[2]))
		le.PutUint64(out[24:32], math.Float64bits(vals[3]))
		out = out[32:]
		vals = vals[4:]
	}
	for i, v := range vals {
		le.PutUint64(out[i*8:], math.Float64bits(v))
	}
	le.PutUint32(e.prefix[crcOffset:], prefixCRC(e.prefix, grid))
	return e.prefix
}

// Write serializes a checkpoint into f: header + field (real bytes) +
// payload (sparse), reusing e's scratch buffer. It does not fsync; the
// pipeline controls syncing. A transient write fault aborts the write
// mid-file; the caller should delete and rewrite the whole file rather
// than trust a partially-written checkpoint.
func (e *Encoder) Write(f *storage.File, g *field.Grid, step uint64, simTime float64, payload units.Bytes) error {
	prefix := e.encodePrefixInto(g, step, simTime, payload)
	if err := f.WriteAt(prefix[:HeaderSize], 0); err != nil {
		return err
	}
	if err := f.WriteAt(prefix[HeaderSize:], HeaderSize); err != nil {
		return err
	}
	if payload > 0 {
		if err := f.WriteSparseAt(units.Bytes(len(prefix)), payload); err != nil {
			return err
		}
	}
	return nil
}

// EncodeTo appends the retained prefix of a checkpoint — header plus
// field bytes — to dst and returns the extended slice. The encode
// scratch is e's and is reused; the appended bytes are the caller's.
// Stores that keep content themselves (the parallel filesystem ships
// this blob) pass a fresh or recycled dst per event.
func (e *Encoder) EncodeTo(dst []byte, g *field.Grid, step uint64, simTime float64, payload units.Bytes) []byte {
	return append(dst, e.encodePrefixInto(g, step, simTime, payload)...)
}

// Write serializes a checkpoint into f with a one-shot Encoder; loops
// over many events should hold an Encoder and use its Write instead.
func Write(f *storage.File, g *field.Grid, step uint64, simTime float64, payload units.Bytes) error {
	var e Encoder
	return e.Write(f, g, step, simTime, payload)
}

// TotalSize returns the on-disk size of a checkpoint of the given grid
// and payload.
func TotalSize(nx, ny int, payload units.Bytes) units.Bytes {
	return HeaderSize + units.Bytes(nx*ny*8) + payload
}

// EncodePrefix serializes the retained prefix of a checkpoint — header
// plus field bytes — into a fresh buffer with a one-shot Encoder.
func EncodePrefix(g *field.Grid, step uint64, simTime float64, payload units.Bytes) []byte {
	var e Encoder
	return e.EncodeTo(nil, g, step, simTime, payload)
}

// DecodePrefix parses an EncodePrefix blob, verifying magic and CRC.
func DecodePrefix(b []byte) (Header, *field.Grid, error) {
	h, err := decodeHeader(b)
	if err != nil {
		return Header{}, nil, err
	}
	const maxDim = 1 << 16
	if h.NX == 0 || h.NY == 0 || h.NX > maxDim || h.NY > maxDim {
		return Header{}, nil, fmt.Errorf("%w: implausible grid %dx%d", ErrCorrupt, h.NX, h.NY)
	}
	gridBytes := int(h.NX) * int(h.NY) * 8
	if len(b) < HeaderSize+gridBytes {
		return Header{}, nil, fmt.Errorf("%w: prefix truncated", ErrCorrupt)
	}
	gb := b[HeaderSize : HeaderSize+gridBytes]
	if crc := prefixCRC(b, gb); crc != h.GridCRC {
		return Header{}, nil, fmt.Errorf("%w: prefix CRC %08x != header %08x", ErrCorrupt, crc, h.GridCRC)
	}
	return h, decodeGrid(gb, int(h.NX), int(h.NY)), nil
}

// Read deserializes a checkpoint from f, charging full read timing for
// header, field, and payload, and verifying magic and CRC.
func Read(f *storage.File) (Header, *field.Grid, error) {
	hb := make([]byte, HeaderSize)
	if err := f.ReadAt(hb, 0); err != nil {
		return Header{}, nil, err
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return Header{}, nil, err
	}
	const maxDim = 1 << 16
	if h.NX == 0 || h.NY == 0 || h.NX > maxDim || h.NY > maxDim {
		return Header{}, nil, fmt.Errorf("%w: implausible grid %dx%d", ErrCorrupt, h.NX, h.NY)
	}
	gridBytes := units.Bytes(h.NX) * units.Bytes(h.NY) * 8
	if HeaderSize+gridBytes+units.Bytes(h.PayloadBytes) > f.Size() {
		return Header{}, nil, fmt.Errorf("%w: sizes exceed file length", ErrCorrupt)
	}
	gb := make([]byte, gridBytes)
	if err := f.ReadAt(gb, HeaderSize); err != nil {
		return Header{}, nil, err
	}
	if crc := prefixCRC(hb, gb); crc != h.GridCRC {
		return Header{}, nil, fmt.Errorf("%w: prefix CRC %08x != header %08x", ErrCorrupt, crc, h.GridCRC)
	}
	// Stream the history payload (timing only; contents unused).
	if h.PayloadBytes > 0 {
		if err := f.ReadSparseAt(HeaderSize+gridBytes, units.Bytes(h.PayloadBytes)); err != nil {
			return Header{}, nil, err
		}
	}
	return h, decodeGrid(gb, int(h.NX), int(h.NY)), nil
}
