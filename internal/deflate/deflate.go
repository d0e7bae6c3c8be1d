// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package deflate is a DEFLATE (RFC 1951) compressor that writes
// exactly what compress/flate writes at BestSpeed. It is a port of the
// parts of Go's compress/flate (Go 1.24.0 sources, BSD licence in
// LICENSE) that flate.NewWriter(w, flate.BestSpeed) reaches, and of
// nothing else: the Snappy-style matcher with its one-block history;
// dynamic-Huffman, Huffman-only and stored blocks chosen by the same
// size rules; the same short final blocks (up to 16 bytes stored,
// 17–127 Huffman-only or stored); and the closing empty stored block.
// There are no other levels, dictionaries, Flush, fixed-Huffman blocks
// or decompressor.
//
// The contract, which the package tests pin against compress/flate:
// for any input split into any sequence of Write calls, a Writer
// writes exactly the bytes flate.NewWriter(w, flate.BestSpeed) writes,
// and hands each stored block to w in one Write, as compress/flate
// does. That keeps PNG IDAT chunking unchanged: image/png's 32 KiB
// bufio.Writer passes a write larger than its buffer through as one
// chunk. A Writer reused after Reset writes what a new one writes.
//
// Three hot loops differ from compress/flate without changing a byte.
// Matches are extended eight bytes at a time. The literal/length and
// offset histograms are counted while the matcher emits tokens,
// instead of in a second pass over them, and each match token carries
// its offset code. The bit writer keeps its pending bits and byte
// count in locals while it writes a block; the token writer looks
// each match's fields up in tables built once per block (the length
// code with its extra bits, the offset code's code, base and size) and
// moves whole bytes out after every token.
package deflate

import (
	"errors"
	"io"
)

const (
	// The LZ77 step produces a sequence of literal tokens and <length, offset>
	// pair tokens. The offset is also known as distance. The underlying wire
	// format limits the range of lengths and offsets. For example, there are
	// 256 legitimate lengths: those in the range [3, 258].
	baseMatchLength = 3       // The smallest match length per the RFC section 3.2.5
	maxMatchLength  = 258     // The largest match length
	baseMatchOffset = 1       // The smallest match offset
	maxMatchOffset  = 1 << 15 // The largest match offset

	// maxStoreBlockSize is the largest stored block, and the size of
	// every block but the last.
	maxStoreBlockSize = 65535
)

var errWriterClosed = errors.New("deflate: write to a closed writer")

// A Writer takes data written to it and writes the compressed form of
// that data to an underlying writer, byte for byte as
// flate.NewWriter(w, flate.BestSpeed) would.
type Writer struct {
	w         *huffmanBitWriter
	fast      *deflateFast
	window    []byte // input not yet encoded, at most one block
	windowEnd int
	tokens    []token
	err       error
}

// NewWriter returns a Writer that compresses to w at BestSpeed.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		w:      newHuffmanBitWriter(w),
		fast:   newDeflateFast(),
		window: make([]byte, maxStoreBlockSize),
		tokens: make([]token, 0, maxStoreBlockSize),
	}
}

// Write writes data to d, which will eventually write the compressed
// form of data to its underlying writer. A block is encoded once it
// is full and more input arrives, or at Close.
func (d *Writer) Write(data []byte) (n int, err error) {
	if d.err != nil {
		return 0, d.err
	}
	n = len(data)
	for len(data) > 0 {
		if d.windowEnd == maxStoreBlockSize {
			d.encSpeed(false)
			if d.err != nil {
				return 0, d.err
			}
		}
		c := copy(d.window[d.windowEnd:], data)
		d.windowEnd += c
		data = data[c:]
	}
	return n, nil
}

// encSpeed compresses the buffered input as one block. At Close
// (final), a window under 128 bytes is stored whole if it holds at
// most 16 and Huffman-coded otherwise, and the match history is
// dropped. Any error that occurred will be in d.err.
func (d *Writer) encSpeed(final bool) {
	src := d.window[:d.windowEnd]
	d.windowEnd = 0
	if final && len(src) < 128 {
		switch {
		case len(src) == 0:
			return
		case len(src) <= 16:
			d.w.writeStoredBlock(src)
		default:
			d.w.writeBlockHuff(src)
		}
		d.err = d.w.err
		d.fast.reset()
		return
	}
	d.tokens = d.fast.encode(d.tokens[:0], src, &d.w.literalFreq, &d.w.offsetFreq)

	// If we removed less than 1/16th, Huffman compress the block.
	if len(d.tokens) > len(src)-(len(src)>>4) {
		d.w.writeBlockHuff(src)
	} else {
		d.w.writeBlockDynamic(d.tokens, src)
	}
	d.err = d.w.err
}

// Close encodes what remains buffered, ends the stream with an empty
// final stored block and flushes it to the underlying writer. Close
// on a closed Writer does nothing; Write after Close fails.
func (d *Writer) Close() error {
	if d.err == errWriterClosed {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	d.encSpeed(true)
	if d.err != nil {
		return d.err
	}
	if d.w.writeStoredHeader(0, true); d.w.err != nil {
		return d.w.err
	}
	d.w.flush()
	if d.w.err != nil {
		return d.w.err
	}
	d.err = errWriterClosed
	return nil
}

// Reset discards d's state and makes it equivalent to the result of
// NewWriter(dst), reusing its buffers.
func (d *Writer) Reset(dst io.Writer) {
	d.w.reset(dst)
	d.err = nil
	d.windowEnd = 0
	d.tokens = d.tokens[:0]
	d.fast.reset()
}
