package deflate

import (
	"io"
	"testing"
)

// maxFuzzInput bounds a fuzz input at three whole blocks and a tail,
// enough for every cross-block and short-final-block path.
const maxFuzzInput = 3*maxStoreBlockSize + 1000

// fuzzInput builds the input a fuzz case describes: data repeated to
// size bytes (size is taken modulo maxFuzzInput+1 and never cuts data
// short), then each byte raised by a pseudo-random value in
// [0, noise] drawn from seed. Noise 255 over constant data makes it
// incompressible, noise near 63 Huffman-only; repeated data without
// noise gives long and cross-block matches.
func fuzzInput(data []byte, size uint32, noise uint8, seed uint64) []byte {
	in := make([]byte, max(len(data), int(size%(maxFuzzInput+1))))
	if len(data) > 0 {
		for i := range in {
			in[i] = data[i%len(data)]
		}
	}
	if noise > 0 {
		x := seed
		for i := range in {
			x = x*6364136223846793005 + 1442695040888963407
			in[i] += byte((x >> 33) % (uint64(noise) + 1))
		}
	}
	return in
}

// fuzzSizes turns each byte of cuts into the length of one Write:
// below 128 that many bytes (0 included), otherwise a multiple of
// 1 KiB up to 128 KiB.
func fuzzSizes(cuts []byte) []int {
	sizes := make([]int, len(cuts))
	for i, c := range cuts {
		sizes[i] = int(c)
		if c >= 128 {
			sizes[i] = (int(c) - 127) << 10
		}
	}
	return sizes
}

// FuzzDeflate compares Writer with compress/flate at BestSpeed on
// fuzzed inputs written in fuzzed pieces: the bytes must be equal and
// each stored block must arrive in one Write, from a new Writer and
// from one reused after Reset. The committed corpus holds inputs of 0,
// 1, 16, 17, 127, 128, 65535, 65536, 65535+16 and 65535+17 bytes and
// incompressible, Huffman-only, cross-block-match and 258-byte-match
// inputs.
func FuzzDeflate(f *testing.F) {
	f.Add([]byte("hello, hello, hello"), uint32(0), uint8(0), uint64(0), []byte{})
	f.Add([]byte{0}, uint32(70000), uint8(255), uint64(1), []byte{5, 200, 0, 131})
	f.Fuzz(func(t *testing.T, data []byte, size uint32, noise uint8, seed uint64, cuts []byte) {
		in := fuzzInput(data, size, noise, seed)
		sizes := fuzzSizes(cuts)
		checkWriter(t, "new writer", nil, in, sizes)
		w := NewWriter(io.Discard)
		writeAll(t, w, in, nil)
		checkWriter(t, "writer reused after Reset", w, in, sizes)
	})
}
