package deflate

import (
	"errors"
	"fmt"
)

// blockKinds walks a DEFLATE stream and names its blocks in order:
// "stored N" for a stored block of N bytes, "huffman" for a
// dynamic-Huffman block of literals only (what writeBlockHuff
// writes), "dynamic" for one with matches, and a trailing " final"
// on the last block. It decodes only as far as it must to find each
// block's end, so it also checks that the stream is well formed.
func blockKinds(stream []byte) ([]string, error) { return walkBlocks(stream, nil) }

// walkBlocks is blockKinds, and also hands each match's length and
// distance to match unless it is nil.
func walkBlocks(stream []byte, match func(length, dist int)) ([]string, error) {
	r := &bitReader{b: stream, match: match}
	var kinds []string
	for {
		final := r.bits(1) == 1
		var kind string
		switch r.bits(2) {
		case 0:
			r.pos = (r.pos + 7) &^ 7
			n := int(r.bits(16))
			if nn := int(r.bits(16)); nn != n^0xffff {
				return kinds, fmt.Errorf("stored block length %d, complement %d", n, nn)
			}
			r.pos += 8 * n
			kind = fmt.Sprintf("stored %d", n)
		case 2:
			matches, err := r.dynamicBlock()
			if err != nil {
				return kinds, err
			}
			kind = "huffman"
			if matches {
				kind = "dynamic"
			}
		default:
			return kinds, errors.New("fixed-Huffman or reserved block type")
		}
		if r.pos > 8*len(stream) {
			return kinds, errors.New("stream truncated")
		}
		if final {
			if (r.pos+7)/8 != len(stream) {
				return kinds, fmt.Errorf("%d bytes after the final block", len(stream)-(r.pos+7)/8)
			}
			return append(kinds, kind+" final"), nil
		}
		kinds = append(kinds, kind)
	}
}

type bitReader struct {
	b     []byte
	pos   int                    // in bits
	match func(length, dist int) // if set, sees each match
}

// bits reads n bits LSB first; past the end it reads zeros, which the
// caller's length check catches.
func (r *bitReader) bits(n int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		if p := r.pos + i; p/8 < len(r.b) {
			v |= uint32(r.b[p/8]>>(p%8)&1) << i
		}
	}
	r.pos += n
	return v
}

// huffmanDecoder decodes canonical Huffman codes one bit at a time.
type huffmanDecoder struct {
	count   [16]int // codes per length
	symbols []int   // by code
}

func newHuffmanDecoder(lengths []int) *huffmanDecoder {
	d := &huffmanDecoder{}
	for _, l := range lengths {
		d.count[l]++
	}
	d.count[0] = 0
	var offs [16]int
	for l := 1; l < 16; l++ {
		offs[l] = offs[l-1] + d.count[l-1]
	}
	d.symbols = make([]int, len(lengths))
	for s, l := range lengths {
		if l != 0 {
			d.symbols[offs[l]] = s
			offs[l]++
		}
	}
	return d
}

func (d *huffmanDecoder) decode(r *bitReader) (int, error) {
	code, first, index := 0, 0, 0
	for l := 1; l < 16; l++ {
		code |= int(r.bits(1))
		c := d.count[l]
		if code-first < c {
			return d.symbols[index+code-first], nil
		}
		index += c
		first += c
		first <<= 1
		code <<= 1
		if r.pos > 8*len(r.b) {
			break
		}
	}
	return 0, errors.New("invalid Huffman code")
}

// dynamicBlock reads a dynamic block's header and symbols up to its
// end-of-block code and reports whether it held any match.
func (r *bitReader) dynamicBlock() (matches bool, err error) {
	nlit, ndist, nclen := int(r.bits(5))+257, int(r.bits(5))+1, int(r.bits(4))+4
	var clens [19]int
	for _, s := range codegenOrder[:nclen] {
		clens[s] = int(r.bits(3))
	}
	cd := newHuffmanDecoder(clens[:])
	lengths := make([]int, 0, nlit+ndist)
	for len(lengths) < nlit+ndist {
		sym, err := cd.decode(r)
		if err != nil {
			return false, err
		}
		switch {
		case sym < 16:
			lengths = append(lengths, sym)
		case sym == 16:
			if len(lengths) == 0 {
				return false, errors.New("repeat with no previous length")
			}
			for n := 3 + int(r.bits(2)); n > 0; n-- {
				lengths = append(lengths, lengths[len(lengths)-1])
			}
		default:
			var n int
			if sym == 17 {
				n = 3 + int(r.bits(3))
			} else {
				n = 11 + int(r.bits(7))
			}
			for ; n > 0; n-- {
				lengths = append(lengths, 0)
			}
		}
	}
	if len(lengths) != nlit+ndist {
		return false, errors.New("code lengths overrun")
	}
	lit, dist := newHuffmanDecoder(lengths[:nlit]), newHuffmanDecoder(lengths[nlit:])
	for {
		if r.pos > 8*len(r.b) {
			return false, errors.New("block runs past the stream")
		}
		sym, err := lit.decode(r)
		switch {
		case err != nil:
			return false, err
		case sym < endBlockMarker:
			continue
		case sym == endBlockMarker:
			return matches, nil
		case sym >= maxNumLit:
			return false, fmt.Errorf("length code %d", sym)
		}
		matches = true
		lc := sym - lengthCodesStart
		length := baseMatchLength + int(lengthBase[lc]) + int(r.bits(int(lengthExtraBits[lc])))
		d, err := dist.decode(r)
		if err != nil {
			return false, err
		}
		if d >= offsetCodeCount {
			return false, fmt.Errorf("offset code %d", d)
		}
		distance := baseMatchOffset + int(offsetBase[d]) + int(r.bits(int(offsetExtraBits[d])))
		if r.match != nil {
			r.match(length, distance)
		}
	}
}
