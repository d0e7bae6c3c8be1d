package checkpoint

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEncodeToSteadyStateAllocs is the allocation-regression guard for
// the checkpoint hot path: an Encoder appending into a recycled dst
// must not allocate once its scratch has grown to the grid size.
func TestEncodeToSteadyStateAllocs(t *testing.T) {
	g := sampleGrid()
	var e Encoder
	buf := e.EncodeTo(nil, g, 0, 0, 4096) // grow scratch and dst once
	avg := testing.AllocsPerRun(100, func() {
		buf = e.EncodeTo(buf[:0], g, 7, 1.25, 4096)
	})
	if avg > 0 {
		t.Errorf("steady-state EncodeTo allocates %.1f objects/event, want 0", avg)
	}
}

// TestEncoderMatchesOneShot pins the reuse refactor to the original
// format: a reused Encoder must emit byte-identical prefixes to the
// one-shot EncodePrefix, including after encoding other events.
func TestEncoderMatchesOneShot(t *testing.T) {
	g := sampleGrid()
	var e Encoder
	e.EncodeTo(nil, g, 1, 0.5, 64) // dirty the scratch
	got := e.EncodeTo(nil, g, 42, 3.5, 4096)
	want := EncodePrefix(g, 42, 3.5, 4096)
	if !bytes.Equal(got, want) {
		t.Error("reused Encoder prefix differs from one-shot EncodePrefix")
	}
}

// TestEncoderWriteRoundTrip checks a reused Encoder's file writes still
// decode, event after event.
func TestEncoderWriteRoundTrip(t *testing.T) {
	_, fs := testFS(t)
	g := sampleGrid()
	var e Encoder
	for i := uint64(0); i < 3; i++ {
		f := fs.Create(fmt.Sprintf("enc-ckpt-%d", i))
		e.Write(f, g, i, float64(i)*0.5, 2048)
		h, got, err := Read(f)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if h.Step != i || got.NX != g.NX || got.NY != g.NY {
			t.Errorf("event %d: header step %d grid %dx%d", i, h.Step, got.NX, got.NY)
		}
	}
}
