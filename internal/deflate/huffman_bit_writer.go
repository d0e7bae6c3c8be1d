// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package deflate

import (
	"encoding/binary"
	"io"
)

const (
	// The largest offset code.
	offsetCodeCount = 30

	// The special code used to mark the end of a block.
	endBlockMarker = 256

	// The first length code.
	lengthCodesStart = 257

	// The number of literal/length codes.
	maxNumLit = 286

	// The number of codegen codes.
	codegenCodeCount = 19
	badCode          = 255

	// bufferFlushSize indicates the buffer size
	// after which bytes are flushed to the writer.
	bufferFlushSize = 240

	// bufferSize is the actual output byte buffer size.
	// It must have additional headroom for a flush
	// which can contain up to 8 bytes.
	bufferSize = bufferFlushSize + 8
)

// The number of extra bits needed by length code X - LENGTH_CODES_START.
var lengthExtraBits = [...]int8{
	/* 257 */ 0, 0, 0,
	/* 260 */ 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
	/* 270 */ 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
	/* 280 */ 4, 5, 5, 5, 5, 0,
}

// The length indicated by length code X - LENGTH_CODES_START.
var lengthBase = [...]uint32{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 10,
	12, 14, 16, 20, 24, 28, 32, 40, 48, 56,
	64, 80, 96, 112, 128, 160, 192, 224, 255,
}

// offset code word extra bits.
var offsetExtraBits = [...]int8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3,
	4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

var offsetBase = [...]uint32{
	0x000000, 0x000001, 0x000002, 0x000003, 0x000004,
	0x000006, 0x000008, 0x00000c, 0x000010, 0x000018,
	0x000020, 0x000030, 0x000040, 0x000060, 0x000080,
	0x0000c0, 0x000100, 0x000180, 0x000200, 0x000300,
	0x000400, 0x000600, 0x000800, 0x000c00, 0x001000,
	0x001800, 0x002000, 0x003000, 0x004000, 0x006000,
}

// The odd order in which the codegen code sizes are written.
var codegenOrder = []uint32{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

type huffmanBitWriter struct {
	// writer is the underlying writer.
	// Do not use it directly; use the write method, which ensures
	// that Write errors are sticky.
	writer io.Writer

	// Data waiting to be written is bytes[0:nbytes]
	// and then the low nbits of bits.  Data is always written
	// sequentially into the bytes array.
	bits            uint64
	nbits           uint
	bytes           [bufferSize]byte
	codegenFreq     [codegenCodeCount]int32
	nbytes          int
	literalFreq     [maxNumLit]int32
	offsetFreq      [offsetCodeCount]int32
	codegen         [maxNumLit + offsetCodeCount + 1]uint8
	literalEncoding *huffmanEncoder
	offsetEncoding  *huffmanEncoder
	codegenEncoding *huffmanEncoder
	err             error

	// writeTokens' per-block tables, indexed by xlength and by offset
	// code (the two spare entries keep the index mask check-free).
	lengthFields [256]lengthField
	offsetFields [32]offsetField
}

// A lengthField is a length code's Huffman code with the length's
// extra bits above it: n ≤ 20 bits to write, LSB first.
type lengthField struct {
	bits, n uint32
}

// An offsetField is an offset code's Huffman code (clen bits), the
// smallest xoffset it stands for, and n, its bit count with the extra
// bits (≤ 28).
type offsetField struct {
	code    uint16
	clen, n uint8
	base    uint32
}

func newHuffmanBitWriter(w io.Writer) *huffmanBitWriter {
	return &huffmanBitWriter{
		writer:          w,
		literalEncoding: newHuffmanEncoder(maxNumLit),
		codegenEncoding: newHuffmanEncoder(codegenCodeCount),
		offsetEncoding:  newHuffmanEncoder(offsetCodeCount),
	}
}

func (w *huffmanBitWriter) reset(writer io.Writer) {
	w.writer = writer
	w.bits, w.nbits, w.nbytes, w.err = 0, 0, 0, nil
}

func (w *huffmanBitWriter) flush() {
	if w.err != nil {
		w.nbits = 0
		return
	}
	n := w.nbytes
	for w.nbits != 0 {
		w.bytes[n] = byte(w.bits)
		w.bits >>= 8
		if w.nbits > 8 { // Avoid underflow
			w.nbits -= 8
		} else {
			w.nbits = 0
		}
		n++
	}
	w.bits = 0
	w.write(w.bytes[:n])
	w.nbytes = 0
}

func (w *huffmanBitWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.writer.Write(b)
}

// flushBytes moves the whole bytes of nbits < 64 pending bits into the
// byte buffer at n, leaving at most 7 bits pending, and the buffer to
// the writer once it holds bufferFlushSize bytes. It returns the new
// bits, nbits and nbytes; callers keep those in locals while they
// write many codes. Writers of single codes and extra bits (≤ 16 bits
// each) flush once 48 bits are pending; writeTokens does what it does
// after every token, inline.
func (w *huffmanBitWriter) flushBytes(bits uint64, nbits uint, n int) (uint64, uint, int) {
	binary.LittleEndian.PutUint64(w.bytes[n:], bits) // bytes past the whole ones are overwritten later
	n += int(nbits >> 3)
	bits >>= nbits & 56
	nbits &= 7
	if n >= bufferFlushSize {
		w.write(w.bytes[:n])
		n = 0
	}
	return bits, nbits, n
}

func (w *huffmanBitWriter) writeBits(b int32, nb uint) {
	if w.err != nil {
		return
	}
	w.bits |= uint64(b) << w.nbits
	w.nbits += nb
	if w.nbits >= 48 {
		w.bits, w.nbits, w.nbytes = w.flushBytes(w.bits, w.nbits, w.nbytes)
	}
}

// writeBytes writes bytes, whole, in one Write after the pending
// header. Only writeStoredHeader precedes it, which leaves a whole
// number of bytes pending.
func (w *huffmanBitWriter) writeBytes(bytes []byte) {
	if w.err != nil {
		return
	}
	n := w.nbytes
	for w.nbits != 0 {
		w.bytes[n] = byte(w.bits)
		w.bits >>= 8
		w.nbits -= 8
		n++
	}
	if n != 0 {
		w.write(w.bytes[:n])
	}
	w.nbytes = 0
	w.write(bytes)
}

// RFC 1951 3.2.7 specifies a special run-length encoding for specifying
// the literal and offset lengths arrays (which are concatenated into a single
// array).  This method generates that run-length encoding.
//
// The result is written into the codegen array, and the frequencies
// of each code is written into the codegenFreq array.
// Codes 0-15 are single byte codes. Codes 16-18 are followed by additional
// information. Code badCode is an end marker
//
//	numLiterals      The number of literals in literalEncoding
//	numOffsets       The number of offsets in offsetEncoding
//	litenc, offenc   The literal and offset encoder to use
func (w *huffmanBitWriter) generateCodegen(numLiterals int, numOffsets int, litEnc, offEnc *huffmanEncoder) {
	clear(w.codegenFreq[:])
	// Note that we are using codegen both as a temporary variable for holding
	// a copy of the frequencies, and as the place where we put the result.
	// This is fine because the output is always shorter than the input used
	// so far.
	codegen := w.codegen[:] // cache
	// Copy the concatenated code sizes to codegen. Put a marker at the end.
	cgnl := codegen[:numLiterals]
	for i := range cgnl {
		cgnl[i] = uint8(litEnc.codes[i].len)
	}

	cgnl = codegen[numLiterals : numLiterals+numOffsets]
	for i := range cgnl {
		cgnl[i] = uint8(offEnc.codes[i].len)
	}
	codegen[numLiterals+numOffsets] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// INVARIANT: We have seen "count" copies of size that have not yet
		// had output generated for them.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		// We need to generate codegen indicating "count" of size.
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			w.codegenFreq[size]++
			count--
			for count >= 3 {
				n := 6
				if n > count {
					n = count
				}
				codegen[outIndex] = 16
				outIndex++
				codegen[outIndex] = uint8(n - 3)
				outIndex++
				w.codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := 138
				if n > count {
					n = count
				}
				codegen[outIndex] = 18
				outIndex++
				codegen[outIndex] = uint8(n - 11)
				outIndex++
				w.codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				// count >= 3 && count <= 10
				codegen[outIndex] = 17
				outIndex++
				codegen[outIndex] = uint8(count - 3)
				outIndex++
				w.codegenFreq[17]++
				count = 0
			}
		}
		count--
		for ; count >= 0; count-- {
			codegen[outIndex] = size
			outIndex++
			w.codegenFreq[size]++
		}
		// Set up invariant for next time through the loop.
		size = nextSize
		count = 1
	}
	// Marker indicating the end of the codegen.
	codegen[outIndex] = badCode
}

// dynamicSize returns the size of dynamically encoded data in bits.
func (w *huffmanBitWriter) dynamicSize(litEnc, offEnc *huffmanEncoder) (size, numCodegens int) {
	numCodegens = len(w.codegenFreq)
	for numCodegens > 4 && w.codegenFreq[codegenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		w.codegenEncoding.bitLength(w.codegenFreq[:]) +
		int(w.codegenFreq[16])*2 +
		int(w.codegenFreq[17])*3 +
		int(w.codegenFreq[18])*7
	size = header +
		litEnc.bitLength(w.literalFreq[:]) +
		offEnc.bitLength(w.offsetFreq[:])

	return size, numCodegens
}

// storedSize is the size in bits of in as a stored block, header
// included. Every block fits one: none exceeds maxStoreBlockSize.
func storedSize(in []byte) int {
	return (len(in) + 5) * 8
}

func (w *huffmanBitWriter) writeCode(c hcode) {
	if w.err != nil {
		return
	}
	w.bits |= uint64(c.code) << w.nbits
	w.nbits += uint(c.len)
	if w.nbits >= 48 {
		w.bits, w.nbits, w.nbytes = w.flushBytes(w.bits, w.nbits, w.nbytes)
	}
}

// Write the header of a non-final dynamic Huffman block to the output
// stream.
//
//	numLiterals  The number of literals specified in codegen
//	numOffsets   The number of offsets specified in codegen
//	numCodegens  The number of codegens used in codegen
func (w *huffmanBitWriter) writeDynamicHeader(numLiterals int, numOffsets int, numCodegens int) {
	if w.err != nil {
		return
	}
	w.writeBits(4, 3)
	w.writeBits(int32(numLiterals-257), 5)
	w.writeBits(int32(numOffsets-1), 5)
	w.writeBits(int32(numCodegens-4), 4)

	for i := 0; i < numCodegens; i++ {
		value := uint(w.codegenEncoding.codes[codegenOrder[i]].len)
		w.writeBits(int32(value), 3)
	}

	i := 0
	for {
		var codeWord int = int(w.codegen[i])
		i++
		if codeWord == badCode {
			break
		}
		w.writeCode(w.codegenEncoding.codes[uint32(codeWord)])

		switch codeWord {
		case 16:
			w.writeBits(int32(w.codegen[i]), 2)
			i++
		case 17:
			w.writeBits(int32(w.codegen[i]), 3)
			i++
		case 18:
			w.writeBits(int32(w.codegen[i]), 7)
			i++
		}
	}
}

func (w *huffmanBitWriter) writeStoredHeader(length int, isEof bool) {
	if w.err != nil {
		return
	}
	var flag int32
	if isEof {
		flag = 1
	}
	w.writeBits(flag, 3)
	w.flush()
	w.writeBits(int32(length), 16)
	w.writeBits(int32(^uint16(length)), 16)
}

// writeStoredBlock writes input as a non-final stored block.
func (w *huffmanBitWriter) writeStoredBlock(input []byte) {
	w.writeStoredHeader(len(input), false)
	w.writeBytes(input)
}

// writeBlockDynamic encodes a block using a dynamic Huffman table.
// This should be used if the symbols used have a disproportionate
// histogram distribution.
// If the compression savings are below 1/16th of the input size the
// input is stored instead.
//
// literalFreq and offsetFreq must hold the histograms of tokens, as
// the matcher counts them while it emits them; the end-of-block marker
// is not among the tokens and is counted here.
func (w *huffmanBitWriter) writeBlockDynamic(tokens []token, input []byte) {
	if w.err != nil {
		return
	}

	w.literalFreq[endBlockMarker] = 1
	numLiterals, numOffsets := w.generateEncodings()

	// Generate codegen and codegenFrequencies, which indicates how to encode
	// the literalEncoding and the offsetEncoding.
	w.generateCodegen(numLiterals, numOffsets, w.literalEncoding, w.offsetEncoding)
	w.codegenEncoding.generate(w.codegenFreq[:], 7)
	size, numCodegens := w.dynamicSize(w.literalEncoding, w.offsetEncoding)

	// Store bytes, if we don't get a reasonable improvement.
	if storedSize(input) < size+size>>4 {
		w.writeStoredBlock(input)
		return
	}

	// Write Huffman table.
	w.writeDynamicHeader(numLiterals, numOffsets, numCodegens)

	// Write the tokens.
	w.writeTokens(tokens, w.literalEncoding.codes, w.offsetEncoding.codes)
	w.writeCode(w.literalEncoding.codes[endBlockMarker])
}

// generateEncodings builds literalEncoding and offsetEncoding from
// literalFreq and offsetFreq and returns the number of literal and
// offset codes the block's header must list.
func (w *huffmanBitWriter) generateEncodings() (numLiterals, numOffsets int) {
	// get the number of literals
	numLiterals = len(w.literalFreq)
	for w.literalFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	// get the number of offsets
	numOffsets = len(w.offsetFreq)
	for numOffsets > 0 && w.offsetFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// We haven't found a single match. If we want to go with the dynamic encoding,
		// we should count at least one offset to be sure that the offset huffman tree could be encoded.
		w.offsetFreq[0] = 1
		numOffsets = 1
	}
	w.literalEncoding.generate(w.literalFreq[:], 15)
	w.offsetEncoding.generate(w.offsetFreq[:], 15)
	return
}

// writeTokens writes a slice of tokens to the output.
// codes for literal and offset encoding must be supplied.
// It first tabulates the block's match fields: for each xlength, its
// length code's Huffman code with the extra bits above it (≤ 20
// bits); for each offset code, its code, base and bit count. A match
// then costs two lookups. After every token the whole pending bytes
// go to the buffer, as flushBytes does, without a branch on the count:
// at most 7 bits stay pending, so the next token's ≤ 48 bits always
// fit the 64-bit word, and the shift counts, masked to 63 so that the
// compiler emits bare shifts, never exceed it. The pending bits and
// the byte count stay in locals throughout. The loop spells the flush
// out because flushBytes is too large to inline: calling it per token
// encoded 512² frames about 5% slower.
func (w *huffmanBitWriter) writeTokens(tokens []token, leCodes, oeCodes []hcode) {
	if w.err != nil {
		return
	}
	leCodes = leCodes[:maxNumLit]
	lens := &w.lengthFields
	for x := range lens {
		lc := lengthCodes[x]
		c := leCodes[lengthCodesStart+lc]
		lens[x] = lengthField{
			bits: uint32(c.code) | (uint32(x)-lengthBase[lc])<<c.len,
			n:    uint32(c.len) + uint32(lengthExtraBits[lc]),
		}
	}
	offs := &w.offsetFields
	for oc, c := range oeCodes[:offsetCodeCount] {
		offs[oc] = offsetField{
			code: c.code,
			clen: uint8(c.len),
			n:    uint8(c.len) + uint8(offsetExtraBits[oc]),
			base: offsetBase[oc],
		}
	}
	bits, nbits, nbytes := w.flushBytes(w.bits, w.nbits, w.nbytes) // the header may leave up to 47
	for _, t := range tokens {
		if t < matchType {
			c := leCodes[uint8(t.literal())]
			bits |= uint64(c.code) << (nbits & 63)
			nbits += uint(c.len)
		} else {
			l := lens[uint8(t.length())]
			bits |= uint64(l.bits) << (nbits & 63)
			nbits += uint(l.n)
			o := offs[t.offsetCode()]
			bits |= uint64(uint32(o.code)|(t.offset()-o.base)<<(o.clen&31)) << (nbits & 63)
			nbits += uint(o.n)
		}
		binary.LittleEndian.PutUint64(w.bytes[nbytes:], bits)
		nbytes += int(nbits >> 3)
		bits >>= nbits & 56
		nbits &= 7
		if nbytes >= bufferFlushSize {
			w.write(w.bytes[:nbytes])
			nbytes = 0
		}
	}
	w.bits, w.nbits, w.nbytes = bits, nbits, nbytes
}

// huffOffset is a static offset encoder used for huffman only encoding.
// It can be reused since we will not be encoding offset values.
var huffOffset = func() *huffmanEncoder {
	var offsetFreq [offsetCodeCount]int32
	offsetFreq[0] = 1
	h := newHuffmanEncoder(offsetCodeCount)
	h.generate(offsetFreq[:], 15)
	return h
}()

// writeBlockHuff encodes a block of bytes as either
// Huffman encoded literals or uncompressed bytes if the
// results only gains very little from compression.
func (w *huffmanBitWriter) writeBlockHuff(input []byte) {
	if w.err != nil {
		return
	}

	// Clear histogram
	clear(w.literalFreq[:])

	// Add everything as literals
	histogram(input, w.literalFreq[:])

	w.literalFreq[endBlockMarker] = 1

	const numLiterals = endBlockMarker + 1
	w.offsetFreq[0] = 1
	const numOffsets = 1

	w.literalEncoding.generate(w.literalFreq[:], 15)

	// Figure out smallest code.
	// Always use dynamic Huffman or Store
	var numCodegens int

	// Generate codegen and codegenFrequencies, which indicates how to encode
	// the literalEncoding and the offsetEncoding.
	w.generateCodegen(numLiterals, numOffsets, w.literalEncoding, huffOffset)
	w.codegenEncoding.generate(w.codegenFreq[:], 7)
	size, numCodegens := w.dynamicSize(w.literalEncoding, huffOffset)

	// Store bytes, if we don't get a reasonable improvement.
	if storedSize(input) < size+size>>4 {
		w.writeStoredBlock(input)
		return
	}

	// Huffman.
	w.writeDynamicHeader(numLiterals, numOffsets, numCodegens)
	encoding := w.literalEncoding.codes[:257]
	bits, nbits, nbytes := w.bits, w.nbits, w.nbytes
	for _, t := range input {
		c := encoding[t]
		bits |= uint64(c.code) << nbits
		nbits += uint(c.len)
		if nbits >= 48 {
			bits, nbits, nbytes = w.flushBytes(bits, nbits, nbytes)
		}
	}
	w.bits, w.nbits, w.nbytes = bits, nbits, nbytes
	w.writeCode(encoding[endBlockMarker])
}

// histogram accumulates a histogram of b in h.
//
// len(h) must be >= 256, and h's elements must be all zeroes.
func histogram(b []byte, h []int32) {
	h = h[:256]
	for _, t := range b {
		h[t]++
	}
}
