package ocean

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rowtest"
)

// momentumCase is one momentumRow call's inputs; the output rows have
// lenU and lenV cells.
type momentumCase struct {
	h, hup, hdn, u, v []float64
	gdtx, gdty, f     float64
	lenU, lenV        int
}

// runMomentumRow runs fn on c, fails if fn writes past n, and returns
// the first n cells of nu and nv.
func runMomentumRow(tb testing.TB, name string, fn func(nu, nv, h, hup, hdn, u, v []float64, gdtx, gdty, f float64), c momentumCase) (nu, nv []float64) {
	tb.Helper()
	n := max(0, min(c.lenU, c.lenV, len(c.h)-2, len(c.hup), len(c.hdn), len(c.u), len(c.v)))
	nu, nv = rowtest.GuardedRow(c.lenU), rowtest.GuardedRow(c.lenV)
	fn(nu, nv, c.h, c.hup, c.hdn, c.u, c.v, c.gdtx, c.gdty, c.f)
	rowtest.CheckGuard(tb, name+" nu", nu, n)
	rowtest.CheckGuard(tb, name+" nv", nv, n)
	return nu[:n], nv[:n]
}

// checkMomentumRow compares momentumRow with momentumRowPortable on c
// bit for bit and returns the portable loop's nu and nv.
func checkMomentumRow(tb testing.TB, c momentumCase) (nu, nv []float64) {
	tb.Helper()
	gotU, gotV := runMomentumRow(tb, "momentumRow", momentumRow, c)
	wantU, wantV := runMomentumRow(tb, "momentumRowPortable", momentumRowPortable, c)
	rowtest.Compare(tb, "nu", gotU, wantU, c)
	rowtest.Compare(tb, "nv", gotV, wantV, c)
	return wantU, wantV
}

// continuityCase is one continuityRow call's inputs; the output row has
// lenH cells.
type continuityCase struct {
	h, u, vup, vdn []float64
	hdtx, hdty     float64
	lenH           int
}

// runContinuityRow runs fn on c, fails if fn writes past n, and returns
// the first n cells of nh.
func runContinuityRow(tb testing.TB, name string, fn func(nh, h, u, vup, vdn []float64, hdtx, hdty float64), c continuityCase) []float64 {
	tb.Helper()
	n := max(0, min(c.lenH, len(c.h), len(c.u)-2, len(c.vup), len(c.vdn)))
	nh := rowtest.GuardedRow(c.lenH)
	fn(nh, c.h, c.u, c.vup, c.vdn, c.hdtx, c.hdty)
	rowtest.CheckGuard(tb, name, nh, n)
	return nh[:n]
}

// checkContinuityRow compares continuityRow with continuityRowPortable
// on c bit for bit and returns the portable loop's nh.
func checkContinuityRow(tb testing.TB, c continuityCase) []float64 {
	tb.Helper()
	got := runContinuityRow(tb, "continuityRow", continuityRow, c)
	want := runContinuityRow(tb, "continuityRowPortable", continuityRowPortable, c)
	rowtest.Compare(tb, "nh", got, want, c)
	return want
}

// TestOceanRowsMatchPortable compares momentumRow and continuityRow (on
// amd64, the SSE2 kernels) with the portable loops on rows of every
// count from 0 to 67 cells, so every odd tail is covered, with any one
// of the slices setting the count and guard cells past it. Rows are
// drawn from palettes of specials (±0, subnormals, ±Inf, NaN), from
// values over many magnitudes, or from near-maximal values whose
// products overflow, under coefficients that include 0, −0 and ±1. It
// fails unless every kind of output cell was reached by each kernel.
func TestOceanRowsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	momentum, continuity := rowtest.Coverage{}, rowtest.Coverage{}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 4*rowtest.Kinds; trial++ {
			kind := trial % rowtest.Kinds
			next := rowtest.Values(rng, kind)
			coef := func() float64 { return rowtest.Coefficient(rng, kind) }
			ls := rowtest.Lengths(rng, n, 0, 0, 2, 0, 0, 0, 0)
			nu, nv := checkMomentumRow(t, momentumCase{
				lenU: ls[0], lenV: ls[1],
				h: rowtest.Row(ls[2], next), hup: rowtest.Row(ls[3], next), hdn: rowtest.Row(ls[4], next),
				u: rowtest.Row(ls[5], next), v: rowtest.Row(ls[6], next),
				gdtx: coef(), gdty: coef(), f: coef(),
			})
			momentum.Add(nu)
			momentum.Add(nv)

			ls = rowtest.Lengths(rng, n, 0, 0, 2, 0, 0)
			continuity.Add(checkContinuityRow(t, continuityCase{
				lenH: ls[0],
				h:    rowtest.Row(ls[1], next), u: rowtest.Row(ls[2], next),
				vup: rowtest.Row(ls[3], next), vdn: rowtest.Row(ls[4], next),
				hdtx: coef(), hdty: coef(),
			}))
		}
	}
	momentum.Check(t)
	continuity.Check(t)
}

// FuzzOceanRows compares momentumRow and continuityRow with the
// portable loops on fuzzed rows of up to 255 cells: the inputs hold
// data's bytes as raw float64 bits (NaNs, infinities and subnormals
// included), and the coefficients are fuzzed bits too (a and b are
// gdtx and gdty, then hdtx and hdty).
func FuzzOceanRows(f *testing.F) {
	bits := math.Float64bits
	f.Add(rowtest.Bytes(1, 2, 3, 4, 5), uint8(7), bits(0.05), bits(0.05), bits(1e-4))
	f.Add(rowtest.Bytes(0, math.Copysign(0, -1), 5e-324, -5e-324), uint8(4), bits(-1), bits(1), bits(0))
	f.Add(rowtest.Bytes(math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308), uint8(9), bits(1e300), bits(0), bits(-1))
	f.Add(rowtest.Bytes(math.MaxFloat64, -math.MaxFloat64, 0.5), uint8(67), bits(math.Inf(1)), bits(math.NaN()), bits(1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, a, b, c uint64) {
		w := int(width)
		ga, gb, fc := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		rows := rowtest.FromBits(data, w+2, w, w, w, w)
		checkMomentumRow(t, momentumCase{
			lenU: w, lenV: w,
			h: rows[0], hup: rows[1], hdn: rows[2], u: rows[3], v: rows[4],
			gdtx: ga, gdty: gb, f: fc,
		})
		rows = rowtest.FromBits(data, w, w+2, w, w)
		checkContinuityRow(t, continuityCase{
			lenH: w, h: rows[0], u: rows[1], vup: rows[2], vdn: rows[3],
			hdtx: ga, hdty: gb,
		})
	})
}
