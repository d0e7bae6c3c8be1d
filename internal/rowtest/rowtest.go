// Package rowtest holds what the heat and ocean row-kernel tests
// share: guarded output rows, a bit comparison that lets NaNs differ in
// payload, inputs drawn from special values, and a coverage count of
// the kinds of output the comparisons reached.
package rowtest

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Guard is the bit pattern every output cell starts as: a row kernel
// must leave the cells from n on as it found them.
const Guard = 0x7ff4a5a5a5a5a5a5

// GuardedRow returns l cells and two more past its length, all holding
// Guard.
func GuardedRow(l int) []float64 {
	o := make([]float64, l+2)
	for i := range o {
		o[i] = math.Float64frombits(Guard)
	}
	return o[:l]
}

// CheckGuard fails unless o's cells from n to two past its length
// still hold Guard.
func CheckGuard(tb testing.TB, name string, o []float64, n int) {
	tb.Helper()
	for i, v := range o[n : len(o)+2] {
		if math.Float64bits(v) != Guard {
			tb.Fatalf("%s: n = %d, len %d: wrote cell %d", name, n, len(o), n+i)
		}
	}
}

// SameBits reports whether a and b have the same bits, treating any NaN
// as equal to any NaN: a NaN's payload follows operand order, which the
// compiler may swap in a commutative operation.
func SameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// Compare fails unless got and want agree cell for cell by SameBits,
// naming the output and describing the inputs with args.
func Compare(tb testing.TB, name string, got, want []float64, args ...any) {
	tb.Helper()
	for k := range want {
		if !SameBits(got[k], want[k]) {
			tb.Fatalf("%d-cell row: %s[%d] = %v (%#016x), portable %v (%#016x)\ninputs %v",
				len(want), name, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]), args)
		}
	}
}

// specials are the values the kernels must treat exactly as the
// portable loops do: ±0, subnormals, ±1, ±Inf, NaN and values whose
// products and sums overflow.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1023, -0x1p-1030,
	1, -1, 0.5, math.Inf(1), math.Inf(-1), math.NaN(),
	1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
}

// coefficients are the coefficients the comparisons draw from beside
// random ones: 0, −0 and ±1 among them.
var coefficients = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 1e300, -1e300,
	math.SmallestNonzeroFloat64, math.Inf(1), math.NaN(),
}

// Kinds is the number of kinds of row Values and Coefficient draw.
const Kinds = 3

// Values returns a source of input values for one row of the given
// kind: a palette of two to four specials (so rows of signed zeros or
// of infinities occur), values spread over many magnitudes with
// specials mixed in, or near-maximal values whose products overflow.
func Values(rng *rand.Rand, kind int) func() float64 {
	switch kind {
	case 0:
		palette := make([]float64, 2+rng.Intn(3))
		for i := range palette {
			palette[i] = specials[rng.Intn(len(specials))]
		}
		return func() float64 { return palette[rng.Intn(len(palette))] }
	case 1:
		return func() float64 {
			if rng.Intn(16) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			// Float64's scaling product is rounded, so no GOARCH
			// fuses it into the difference (here and below).
			return (float64(rng.Float64()) - 0.5) * float64(int(1)<<uint(rng.Intn(30)))
		}
	default:
		return func() float64 { return math.MaxFloat64 * (float64(rng.Float64())*2 - 1) }
	}
}

// Coefficient draws a coefficient for a row of the given kind.
func Coefficient(rng *rand.Rand, kind int) float64 {
	if kind == 1 && rng.Intn(2) == 0 {
		return rng.Float64() / 4
	}
	return coefficients[rng.Intn(len(coefficients))]
}

// Lengths returns one length per offset such that the minimum of
// length − offset is n: one of them, chosen at random, is exactly
// n + offset, the others up to two longer. When n is 0 that one may be
// shorter than its offset, so the minimum is negative.
func Lengths(rng *rand.Rand, n int, offsets ...int) []int {
	ls := make([]int, len(offsets))
	limit := rng.Intn(len(ls))
	for i, off := range offsets {
		ls[i] = n + off
		if i != limit {
			ls[i] += rng.Intn(3)
		} else if n == 0 && off > 0 {
			ls[i] = rng.Intn(off + 1)
		}
	}
	return ls
}

// Row returns l values from next.
func Row(l int, next func() float64) []float64 {
	r := make([]float64, l)
	for i := range r {
		r[i] = next()
	}
	return r
}

// Coverage counts the kinds of output cell the comparisons reached.
type Coverage map[string]int

// Add counts out's cells by kind.
func (cov Coverage) Add(out []float64) {
	for _, v := range out {
		switch {
		case math.IsNaN(v):
			cov["NaN"]++
		case math.IsInf(v, 1):
			cov["+Inf"]++
		case math.IsInf(v, -1):
			cov["-Inf"]++
		case v == 0 && math.Signbit(v):
			cov["-0"]++
		case v == 0:
			cov["+0"]++
		case math.Abs(v) < 0x1p-1022:
			cov["subnormal"]++
		default:
			cov["normal"]++
		}
	}
}

// Check fails unless every kind of output cell was reached.
func (cov Coverage) Check(t *testing.T) {
	t.Helper()
	for _, kind := range []string{"NaN", "+Inf", "-Inf", "-0", "+0", "subnormal", "normal"} {
		if cov[kind] == 0 {
			t.Errorf("no output cell reached %s; coverage %v", kind, cov)
		}
	}
}

// FromBits cuts data into float64 words (a short last word is
// zero-padded) and returns rows of the given lengths filled cyclically
// from them, or with zeros when data is empty.
func FromBits(data []byte, lens ...int) [][]float64 {
	vals := make([]float64, (len(data)+7)/8)
	for i := range vals {
		var word [8]byte
		copy(word[:], data[8*i:])
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
	}
	rows := make([][]float64, len(lens))
	j := 0
	for i, l := range lens {
		rows[i] = make([]float64, l)
		for k := range rows[i] {
			if len(vals) > 0 {
				rows[i][k] = vals[j%len(vals)]
			}
			j++
		}
	}
	return rows
}

// Bytes returns vals' bits as little-endian bytes, a fuzz seed.
func Bytes(vals ...float64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
