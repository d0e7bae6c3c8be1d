package viz

import (
	"encoding"
	"encoding/binary"
	"hash/adler32"
	"testing"
)

// adlerReference is hash/adler32 over p, started from the state d.
func adlerReference(t *testing.T, d uint32, p []byte) uint32 {
	t.Helper()
	h := adler32.New()
	state := binary.BigEndian.AppendUint32([]byte("adl\x01"), d)
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	h.Write(p)
	return h.Sum32()
}

// FuzzAdler32 compares adlerUpdate with hash/adler32 on data repeated
// to size bytes (never cutting data short), summed from the state
// start (both sums reduced modulo adlerMod) in two calls split at
// split (modulo the length). The seeds hold inputs of 0–33 bytes, the
// assembly kernel's block edges, and all-0xff inputs of 5551, 5552,
// 5553 and 11104 bytes from the largest state: the sums' worst case,
// on both sides of the fold and across two.
func FuzzAdler32(f *testing.F) {
	for n := 0; n <= 33; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*37 + n*11)
		}
		f.Add(data, uint16(0), uint32(n)*0x9e3779b9, uint16(n/3))
	}
	const top = (adlerMod-1)<<16 | (adlerMod - 1)
	for _, n := range []uint16{5551, 5552, 5553, 2 * adlerMax} {
		f.Add([]byte{0xff}, n, uint32(top), uint16(0))
		f.Add([]byte{0xff}, n, uint32(top), n/2+1)
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16, start uint32, split uint16) {
		in := make([]byte, max(len(data), int(size)))
		if len(data) > 0 {
			for i := range in {
				in[i] = data[i%len(data)]
			}
		}
		d := (start>>16%adlerMod)<<16 | start&0xffff%adlerMod
		k := int(split) % (len(in) + 1)
		got := adlerUpdate(adlerUpdate(d, in[:k]), in[k:])
		if want := adlerReference(t, d, in); got != want {
			t.Fatalf("adlerUpdate(%#08x, %d bytes split at %d) = %#08x, hash/adler32 %#08x", d, len(in), k, got, want)
		}
	})
}
