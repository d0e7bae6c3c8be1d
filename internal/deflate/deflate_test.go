package deflate

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// span is one Write call: where its bytes start in the stream and how
// many there are.
type span struct{ off, n int }

// traceWriter records the stream and the shape of the Writes that
// built it.
type traceWriter struct {
	buf    bytes.Buffer
	writes []span
}

func (t *traceWriter) Write(p []byte) (int, error) {
	t.writes = append(t.writes, span{t.buf.Len(), len(p)})
	return t.buf.Write(p)
}

// largeWrites returns the Writes longer than the bit writer's buffer
// can hold: the payloads of stored blocks. A bufio.Writer passes a
// write through whole only when it exceeds its buffer, so these alone
// can shape the chunks a buffered consumer such as image/png emits.
func (t *traceWriter) largeWrites() []span {
	var out []span
	for _, w := range t.writes {
		if w.n > bufferSize {
			out = append(out, w)
		}
	}
	return out
}

// writeAll writes in to w in pieces whose lengths come from sizes, the
// rest in one last Write, and closes w.
func writeAll(tb testing.TB, w io.WriteCloser, in []byte, sizes []int) {
	tb.Helper()
	for _, n := range sizes {
		n = min(n, len(in))
		if k, err := w.Write(in[:n]); k != n || err != nil {
			tb.Fatalf("Write(%d bytes) = %d, %v", n, k, err)
		}
		in = in[n:]
	}
	if _, err := w.Write(in); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

// reference compresses in with compress/flate at BestSpeed, written in
// the same pieces.
func reference(tb testing.TB, in []byte, sizes []int) *traceWriter {
	tb.Helper()
	var tr traceWriter
	fw, err := flate.NewWriter(&tr, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	writeAll(tb, fw, in, sizes)
	return &tr
}

// checkWriter fails unless w, reset onto a fresh trace (or a new
// Writer if w is nil), compresses in (written in the given pieces) to
// compress/flate's bytes with its stored blocks in the same whole
// Writes, and returns the stream.
func checkWriter(tb testing.TB, name string, w *Writer, in []byte, sizes []int) []byte {
	tb.Helper()
	want := reference(tb, in, sizes)
	var got traceWriter
	if w == nil {
		w = NewWriter(&got)
	} else {
		w.Reset(&got)
	}
	writeAll(tb, w, in, sizes)
	if !bytes.Equal(got.buf.Bytes(), want.buf.Bytes()) {
		g, r := got.buf.Bytes(), want.buf.Bytes()
		i := 0
		for i < len(g) && i < len(r) && g[i] == r[i] {
			i++
		}
		tb.Fatalf("%s (%d bytes in, writes %v): %d bytes out, compress/flate %d; first difference at byte %d",
			name, len(in), sizes, len(g), len(r), i)
	}
	if g, r := got.largeWrites(), want.largeWrites(); !slices.Equal(g, r) {
		tb.Fatalf("%s: stored-block writes %v, compress/flate %v", name, g, r)
	}
	return got.buf.Bytes()
}

// randomBytes returns n bytes below limit (1..256) from rng.
func randomBytes(rng *rand.Rand, n, limit int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(limit))
	}
	return b
}

// repeatTo repeats pattern to n bytes.
func repeatTo(pattern []byte, n int) []byte {
	return bytes.Repeat(pattern, n/len(pattern)+1)[:n]
}

// blockCase is an input that must reach a given sequence of blocks.
type blockCase struct {
	name   string
	in     []byte
	blocks string
}

// blockCases reach every block kind and length path BestSpeed has. A
// Huffman-only block is one where matching removed under 1/16 of the
// bytes but the byte histogram is skewed (a 64-letter alphabet); a
// stored block one where neither pays (bytes drawn from all 256).
func blockCases() []blockCase {
	rng := rand.New(rand.NewSource(18))
	const B = maxStoreBlockSize
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog; ", 1500))
	lowEntropy := repeatTo([]byte("aabaaaca"), 200) // Huffman-coded even when short
	smooth := make([]byte, 3*B)
	for i := range smooth {
		smooth[i] = byte(i/97 + i%7)
	}
	blockThen := func(tail []byte) []byte { return append(slices.Clone(smooth[:B]), tail...) }
	var huffThenTail []byte
	huffThenTail = append(huffThenTail, randomBytes(rng, B, 64)...)
	huffThenTail = append(huffThenTail, text[:B]...)
	huffThenTail = append(huffThenTail, lowEntropy[:100]...)
	pattern := randomBytes(rng, 20000, 256) // block 2 starts 20000 bytes after a copy in block 1
	return []blockCase{
		{"empty", nil, "stored 0 final"},
		{"1 byte", []byte{'x'}, "stored 1,stored 0 final"},
		{"16 bytes", text[:16], "stored 16,stored 0 final"},
		{"17 bytes", lowEntropy[:17], "huffman,stored 0 final"},
		{"17 bytes of text", text[:17], "stored 17,stored 0 final"}, // Huffman saves too little
		{"127 bytes", text[:127], "huffman,stored 0 final"},
		{"128 bytes", text[:128], "dynamic,stored 0 final"},
		{"128 random bytes", randomBytes(rng, 128, 256), "stored 128,stored 0 final"},
		{"one block", smooth[:B], "dynamic,stored 0 final"},
		{"one block and 1", smooth[:B+1], "dynamic,stored 1,stored 0 final"},
		{"one block and 16", smooth[:B+16], "dynamic,stored 16,stored 0 final"},
		{"one block and 17", blockThen(lowEntropy[:17]), "dynamic,huffman,stored 0 final"},
		{"one block and 17 stored", smooth[:B+17], "dynamic,stored 17,stored 0 final"},
		{"one block and 127", smooth[:B+127], "dynamic,huffman,stored 0 final"},
		{"one block and 128", smooth[:B+128], "dynamic,dynamic,stored 0 final"},
		{"incompressible", randomBytes(rng, 3*B+1000, 256), "stored 65535,stored 65535,stored 65535,stored 1000,stored 0 final"},
		{"huffman-only", randomBytes(rng, 2*B, 64), "huffman,huffman,stored 0 final"},
		{"huffman after dynamic", blockThen(randomBytes(rng, 5000, 64)), "dynamic,huffman,stored 0 final"},
		{"huffman, dynamic, tail", huffThenTail, "huffman,dynamic,huffman,stored 0 final"},
		{"cross-block matches", repeatTo(pattern, 3*B), "dynamic,dynamic,dynamic,stored 0 final"},
		{"258-byte matches", repeatTo([]byte("abc"), 2*B+5000), "dynamic,dynamic,dynamic,stored 0 final"},
		{"zeros", make([]byte, 200000), "dynamic,dynamic,dynamic,dynamic,stored 0 final"},
	}
}

// TestWriterMatchesFlate pins the contract: for inputs reaching every
// block kind and short-final-block path, written whole, in one-block
// pieces, in pieces straddling block boundaries and in random pieces,
// a reused Writer emits compress/flate's BestSpeed bytes with the same
// stored-block Writes, and its blocks are the expected ones.
func TestWriterMatchesFlate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWriter(io.Discard)
	for _, c := range blockCases() {
		splits := [][]int{
			nil,
			{maxStoreBlockSize, maxStoreBlockSize},
			{1, maxStoreBlockSize, 0, 3},
			{100, 40000, 70000},
		}
		var random []int
		for n := 0; n < len(c.in); n += random[len(random)-1] {
			random = append(random, rng.Intn(9000))
		}
		splits = append(splits, random)
		for _, sizes := range splits {
			out := checkWriter(t, c.name, w, c.in, sizes)
			kinds, err := blockKinds(out)
			if err != nil {
				t.Fatalf("%s: %v (blocks so far %v)", c.name, err, kinds)
			}
			if got := strings.Join(kinds, ","); got != c.blocks {
				t.Fatalf("%s: blocks %s, want %s", c.name, got, c.blocks)
			}
		}
	}
}

// TestByteWrites feeds inputs around the short-block thresholds one
// byte per Write.
func TestByteWrites(t *testing.T) {
	w := NewWriter(io.Discard)
	in := []byte(strings.Repeat("abcdefghij", 20))
	for n := 0; n <= len(in); n++ {
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		checkWriter(t, fmt.Sprintf("%d one-byte writes", n), w, in[:n], ones)
	}
}

// TestShiftOffsets sets the matcher's offset base just short of the
// point where it rebases its table, so the rebase falls mid-stream or,
// for the last base, in Reset: matches within reach, the previous
// block's included, must survive it, so the bytes still equal
// compress/flate's from a fresh start. Every block of the input is
// matched, from its first byte on.
func TestShiftOffsets(t *testing.T) {
	in := make([]byte, 5*maxStoreBlockSize)
	for i := range in {
		in[i] = byte(i/97 + i%7)
	}
	w := NewWriter(io.Discard)
	for _, cur := range []int32{
		bufferReset - 3*maxStoreBlockSize,
		bufferReset - 2*maxStoreBlockSize - 1,
		bufferReset - maxStoreBlockSize,
		bufferReset - maxMatchOffset - 1,
		bufferReset - 1,
	} {
		clear(w.fast.table[:]) // no entry may look recent under the lower base
		w.fast.cur = cur
		var got bytes.Buffer
		w.Reset(&got)
		writeAll(t, w, in, nil)
		if want := reference(t, in, nil); !bytes.Equal(got.Bytes(), want.buf.Bytes()) {
			t.Fatalf("offset base %d: output differs from compress/flate", cur)
		}
		if kinds, err := blockKinds(got.Bytes()); err != nil || strings.Count(strings.Join(kinds, ","), "dynamic") != 5 {
			t.Fatalf("offset base %d: blocks %v (%v), want five dynamic ones", cur, kinds, err)
		}
		if w.fast.cur >= cur {
			t.Fatalf("offset base %d: never rebased (now %d)", cur, w.fast.cur)
		}
	}
}

// TestWriteAfterClose pins the closed state: Close twice is fine,
// Write after Close fails, and Reset reopens.
func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	w.Reset(&buf)
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatalf("Write after Reset: %v", err)
	}
}

// failWriter fails every Write after the first ok ones.
type failWriter struct{ ok int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.ok == 0 {
		return 0, io.ErrShortWrite
	}
	f.ok--
	return len(p), nil
}

// TestWriteErrorSticks checks that an error from the underlying writer
// is returned by Close and by every later Write.
func TestWriteErrorSticks(t *testing.T) {
	in := randomBytes(rand.New(rand.NewSource(3)), 3*maxStoreBlockSize, 256)
	for ok := 0; ok < 4; ok++ {
		w := NewWriter(&failWriter{ok: ok})
		var err error
		for p := in; len(p) > 0 && err == nil; p = p[min(len(p), 1000):] {
			_, err = w.Write(p[:min(len(p), 1000)])
		}
		if err == nil {
			err = w.Close()
		}
		if err != io.ErrShortWrite {
			t.Fatalf("after %d good writes: error %v, want %v", ok, err, io.ErrShortWrite)
		}
		if _, err := w.Write([]byte("x")); err != io.ErrShortWrite {
			t.Fatalf("Write after the error: %v", err)
		}
	}
}

func BenchmarkWriter(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := make([]byte, 1<<20)
	for i := range in {
		in[i] = byte(i/1024 + i%13 + rng.Intn(3))
	}
	b.Run("port", func(b *testing.B) {
		w := NewWriter(io.Discard)
		b.SetBytes(int64(len(in)))
		for i := 0; i < b.N; i++ {
			w.Reset(io.Discard)
			w.Write(in)
			w.Close()
		}
	})
	b.Run("compress-flate", func(b *testing.B) {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		b.SetBytes(int64(len(in)))
		for i := 0; i < b.N; i++ {
			w.Reset(io.Discard)
			w.Write(in)
			w.Close()
		}
	})
}

// lengthRange and offsetRange return the shortest and longest match
// length of length code lengthCodesStart+c, and the shortest and
// longest distance of offset code c.
func lengthRange(c int) (lo, hi int) {
	lo, hi = -1, -1
	for x, lc := range lengthCodes {
		if int(lc) == c {
			if lo < 0 {
				lo = x + baseMatchLength
			}
			hi = x + baseMatchLength
		}
	}
	return lo, hi
}

func offsetRange(c int) (lo, hi int) {
	lo = int(offsetBase[c]) + baseMatchOffset
	return lo, lo + 1<<offsetExtraBits[c] - 1
}

// codeCoverageInput builds an input whose BestSpeed matches have
// chosen lengths at chosen distances: every length code's shortest
// and longest length, and every offset code's shortest and longest
// distance. A copy of length n at distance d up to 32 is a run with a
// period of d random bytes, n+d long; a longer one is n+1 random bytes
// (the source), zeros up to the distance, then the first n source
// bytes. The zeros are matched at distance 1 up to the copy, whose
// first four bytes the matcher then finds at the source. Each copy
// ends with a byte that breaks the match.
func codeCoverageInput(rng *rand.Rand) []byte {
	var in []byte
	random := func(n int) []byte {
		b := randomBytes(rng, n, 256)
		for i := range b {
			b[i] |= 1 // no zeros: they are the filler
		}
		return b
	}
	copyAt := func(n, d int) {
		if d <= 32 {
			period := random(d)
			for i := 0; i < n+d; i++ {
				in = append(in, period[i%d])
			}
			in = append(in, period[(n+d)%d]^0x80)
			return
		}
		src := random(n + 1)
		in = append(in, src...)
		in = append(in, make([]byte, d-n-1)...)
		in = append(in, src[:n]...)
		in = append(in, src[n]^0x80)
	}
	for c := 1; c < len(lengthBase); c++ {
		lo, hi := lengthRange(c)
		copyAt(lo, 2*hi+40)
		copyAt(hi, 2*hi+40)
	}
	for c := 0; c < offsetCodeCount; c++ {
		lo, hi := offsetRange(c)
		copyAt(4, lo)
		copyAt(4, hi)
	}
	return append(in, random(64)...) // the matcher leaves a block's last bytes literal
}

// TestEveryLengthAndOffsetCode drives dynamic blocks through every
// length code BestSpeed emits, each at its shortest and longest
// length, and through every offset code at its shortest and longest
// distance, and compares the bytes with compress/flate. The block
// decoder confirms the coverage. Code 257 (length 3) is absent:
// BestSpeed's matches are at least 4 bytes long.
func TestEveryLengthAndOffsetCode(t *testing.T) {
	in := codeCoverageInput(rand.New(rand.NewSource(21)))
	out := checkWriter(t, "code coverage", nil, in, nil)
	lengths, dists := map[int]bool{}, map[int]bool{}
	if _, err := walkBlocks(out, func(length, dist int) {
		lengths[length], dists[dist] = true, true
	}); err != nil {
		t.Fatal(err)
	}
	for c := 1; c < len(lengthBase); c++ {
		lo, hi := lengthRange(c)
		for _, n := range []int{lo, hi} {
			if !lengths[n] {
				t.Errorf("no match of length %d (code %d)", n, lengthCodesStart+c)
			}
		}
	}
	for c := 0; c < offsetCodeCount; c++ {
		lo, hi := offsetRange(c)
		for _, d := range []int{lo, hi} {
			if !dists[d] {
				t.Errorf("no match at distance %d (offset code %d)", d, c)
			}
		}
	}
}
