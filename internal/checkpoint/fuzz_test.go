package checkpoint

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/field"
)

// fuzzSeedPrefix builds the valid prefix the in-code seeds mutate.
func fuzzSeedPrefix() []byte {
	g := field.New(4, 4)
	for i := range g.Data {
		g.Data[i] = float64(i) * 0.5
	}
	return EncodePrefix(g, 7, 1.25, 64)
}

// FuzzDecodePrefix asserts the decoder's safety contract on arbitrary
// bytes — the same contract the recovery path depends on when bit-rot
// reaches a delivered checkpoint prefix: DecodePrefix never panics, and
// on any malformed input it returns an ErrCorrupt-wrapped error with a
// nil grid, never a partially-decoded one.
func FuzzDecodePrefix(f *testing.F) {
	valid := fuzzSeedPrefix()
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid)
	f.Add(valid[:HeaderSize-1])
	f.Add(valid[:HeaderSize+5])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[HeaderSize+3] ^= 0x40 // grid bit-rot: CRC must catch it
	f.Add(flipped)
	rotHeader := append([]byte(nil), valid...)
	rotHeader[20] ^= 0x01 // SimTime bit-rot: header is CRC-covered too
	f.Add(rotHeader)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[28:], 1<<20) // implausible NX
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		h, g, err := DecodePrefix(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt error: %v", err)
			}
			if g != nil {
				t.Fatal("grid returned alongside an error")
			}
			return
		}
		if g == nil {
			t.Fatal("nil grid without error")
		}
		if len(g.Data) != int(h.NX)*int(h.NY) {
			t.Fatalf("grid size %d != header %dx%d", len(g.Data), h.NX, h.NY)
		}
	})
}
