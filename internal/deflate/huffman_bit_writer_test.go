package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"
)

// TestWriteTokensWidestFields writes tokens straight into a dynamic
// block whose Huffman codes are 1 to 15 bits long, and checks that
// compress/flate's decompressor reads back the bytes they stand for.
// Fibonacci frequencies give length code 284 and offset code 29 the
// longest codes, so a 227–257-byte match at distance 24577–32768
// takes the most bits any match can: 15+5 for its length, 15+13 for
// its offset. Each follows 0–7 copies of a literal, for literals with
// codes of 1 to 12 bits, so the widest matches start at every bit
// position of a byte. Matches of 3 bytes (code 257), which BestSpeed
// never emits, and of 258 (code 285) come between them.
func TestWriteTokensWidestFields(t *testing.T) {
	fib := []int32{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987}
	literals := []byte("abcdefghijkl")
	litSyms := append([]int{284, endBlockMarker, 257, 285}, make([]int, len(literals))...)
	for i, c := range literals {
		litSyms[4+i] = int(c)
	}

	rng := rand.New(rand.NewSource(5))
	var tokens []token
	var want []byte
	literal := func(c byte) {
		tokens = append(tokens, literalToken(uint32(c)))
		want = append(want, c)
	}
	match := func(length, dist int) {
		xoff := uint32(dist - baseMatchOffset)
		tokens = append(tokens, matchToken(uint32(length-baseMatchLength), xoff, offsetCode(xoff)))
		for i := 0; i < length; i++ {
			want = append(want, want[len(want)-dist])
		}
	}
	for len(want) < maxMatchOffset { // history for the longest distances
		literal(literals[rng.Intn(len(literals))])
	}
	for _, c := range literals {
		for k := 0; k < 8; k++ {
			for i := 0; i < k; i++ {
				literal(c)
			}
			match(227+rng.Intn(31), 24577+rng.Intn(8192))
			match(3, 129+rng.Intn(maxMatchOffset-128))
			match(maxMatchLength, 129+rng.Intn(maxMatchOffset-128))
		}
	}

	var buf bytes.Buffer
	w := newHuffmanBitWriter(&buf)
	clear(w.literalFreq[:])
	clear(w.offsetFreq[:])
	for i, sym := range litSyms {
		w.literalFreq[sym] = fib[i]
	}
	for i := range fib {
		w.offsetFreq[offsetCodeCount-1-i] = fib[i] // codes 29 (rarest) down to 14
	}
	w.writeBlockDynamic(tokens, want)
	w.writeStoredHeader(0, true)
	w.flush()
	if w.err != nil {
		t.Fatal(w.err)
	}
	if c := w.literalEncoding.codes[284]; c.len != 15 {
		t.Fatalf("length code 284 got a %d-bit code, want 15", c.len)
	}
	if c := w.offsetEncoding.codes[29]; c.len != 15 {
		t.Fatalf("offset code 29 got a %d-bit code, want 15", c.len)
	}

	got, err := io.ReadAll(flate.NewReader(&buf))
	if err != nil {
		t.Fatalf("compress/flate cannot read the block back: %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("read back %d bytes, want %d; first difference at byte %d", len(got), len(want), i)
	}

	// A header's field writers leave up to 47 bits pending. Whatever
	// the count, the tokens after the history, a widest match first,
	// must come out as the byte-aligned write's bits shifted by it.
	tail := tokens[maxMatchOffset:]
	writeAfter := func(pending uint) []byte {
		var buf bytes.Buffer
		w2 := newHuffmanBitWriter(&buf)
		w2.bits, w2.nbits = 1<<pending-1, pending // all ones
		w2.writeTokens(tail, w.literalEncoding.codes, w.offsetEncoding.codes)
		w2.flush()
		return bytes.TrimRight(buf.Bytes(), "\x00")
	}
	aligned := writeAfter(0)
	for pending := uint(1); pending < 48; pending++ {
		want := make([]byte, len(aligned)+6)
		for i := uint(0); i < pending; i++ {
			want[i/8] |= 1 << (i % 8)
		}
		for i, b := range aligned { // byte i lands on bits 8i+pending on
			v, k := uint16(b)<<(pending%8), uint(i)+pending/8
			want[k] |= byte(v)
			want[k+1] |= byte(v >> 8)
		}
		if got := writeAfter(pending); !bytes.Equal(got, bytes.TrimRight(want, "\x00")) {
			t.Fatalf("after %d pending bits, the tokens' bits differ from the byte-aligned write's", pending)
		}
	}
}
