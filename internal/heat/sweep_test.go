package heat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rowtest"
)

// sweepCase is one sweepRow call's inputs; the output row has lenO
// cells.
type sweepCase struct {
	c, up, dn []float64
	rx, ry    float64
	lenO      int
}

// runSweepRow runs f on sc, fails if f writes past n, and returns the
// first n output cells.
func runSweepRow(tb testing.TB, name string, f func(o, c, up, dn []float64, rx, ry float64), sc sweepCase) []float64 {
	tb.Helper()
	n := max(0, min(sc.lenO, len(sc.c)-2, len(sc.up), len(sc.dn)))
	o := rowtest.GuardedRow(sc.lenO)
	f(o, sc.c, sc.up, sc.dn, sc.rx, sc.ry)
	rowtest.CheckGuard(tb, name, o, n)
	return o[:n]
}

// checkSweepRow compares sweepRow with sweepRowPortable on sc bit for
// bit and returns the portable loop's output.
func checkSweepRow(tb testing.TB, sc sweepCase) []float64 {
	tb.Helper()
	got := runSweepRow(tb, "sweepRow", sweepRow, sc)
	want := runSweepRow(tb, "sweepRowPortable", sweepRowPortable, sc)
	rowtest.Compare(tb, "o", got, want, sc)
	return want
}

// TestSweepRowMatchesPortable compares sweepRow (on amd64, the SSE2
// kernel) with the portable loop on rows of every count from 0 to 67
// cells, so every odd tail is covered, with any one of the slices
// setting the count and guard cells past it. Rows are drawn from
// palettes of specials (±0, subnormals, ±Inf, NaN), from values over
// many magnitudes, or from near-maximal values whose products
// overflow, under coefficients that include 0, −0 and ±1. It fails
// unless every kind of output cell was reached.
func TestSweepRowMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cov := rowtest.Coverage{}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 4*rowtest.Kinds; trial++ {
			kind := trial % rowtest.Kinds
			next := rowtest.Values(rng, kind)
			ls := rowtest.Lengths(rng, n, 0, 2, 0, 0)
			sc := sweepCase{
				lenO: ls[0], c: rowtest.Row(ls[1], next), up: rowtest.Row(ls[2], next), dn: rowtest.Row(ls[3], next),
				rx: rowtest.Coefficient(rng, kind), ry: rowtest.Coefficient(rng, kind),
			}
			cov.Add(checkSweepRow(t, sc))
		}
	}
	cov.Check(t)
}

// FuzzSweepRow compares sweepRow with the portable loop on fuzzed rows
// of up to 255 cells: the inputs hold data's bytes as raw float64 bits
// (NaNs, infinities and subnormals included), and rx and ry are fuzzed
// bits too.
func FuzzSweepRow(f *testing.F) {
	bits := math.Float64bits
	f.Add(rowtest.Bytes(1, 2, 3, 4, 5), uint8(7), bits(0.2), bits(0.25))
	f.Add(rowtest.Bytes(1, 5e15, 1, 0.1, -3e15, 7), uint8(6), bits(1), bits(0))
	f.Add(rowtest.Bytes(0, math.Copysign(0, -1), 5e-324, -5e-324), uint8(4), bits(-1), bits(1))
	f.Add(rowtest.Bytes(math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308), uint8(9), bits(1e300), bits(0))
	f.Add(rowtest.Bytes(math.MaxFloat64, -math.MaxFloat64, 0.5), uint8(67), bits(math.Inf(1)), bits(math.NaN()))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, rx, ry uint64) {
		w := int(width)
		rows := rowtest.FromBits(data, w+2, w, w)
		checkSweepRow(t, sweepCase{
			lenO: w, c: rows[0], up: rows[1], dn: rows[2],
			rx: math.Float64frombits(rx), ry: math.Float64frombits(ry),
		})
	})
}
