package checkpoint

import (
	"testing"

	"repro/internal/field"
)

// BenchmarkCheckpointEncode is the kernel benchmark for the encode
// (run by scripts/bench.sh at -cpu 1): header + 256×256 field
// (512 KiB) through a reused Encoder. Steady state is 0 allocs/op.
func BenchmarkCheckpointEncode(b *testing.B) {
	g := field.New(256, 256)
	for i := range g.Data {
		g.Data[i] = float64(i%97) * 0.25
	}
	var e Encoder
	buf := e.EncodeTo(nil, g, 0, 0, 4096) // grow scratch and dst once
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.EncodeTo(buf[:0], g, uint64(i), float64(i), 4096)
	}
}
