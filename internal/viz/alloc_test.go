package viz

import (
	"testing"
)

// TestRenderSteadyStateAllocs is the allocation-regression guard for
// the hot render path: once the frame and segment pools are warm, a
// Render+ReleaseFrame cycle of fixed geometry must not allocate per
// frame. The budget of 2 tolerates an occasional GC emptying the
// sync.Pools mid-measurement.
func TestRenderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so steady-state allocation counts don't hold")
	}
	g := hotSpotGrid()
	opts := RenderOptions{Width: 128, Height: 128, Isolines: []float64{25, 50, 75}}
	for i := 0; i < 3; i++ { // warm the pools
		img, _ := Render(g, opts)
		ReleaseFrame(img)
	}
	avg := testing.AllocsPerRun(50, func() {
		img, _ := Render(g, opts)
		ReleaseFrame(img)
	})
	if avg > 2 {
		t.Errorf("steady-state Render allocates %.1f objects/frame, want <= 2", avg)
	}
}

// TestEncodePNGSteadyStateAllocs pins the encoder's budget: once its
// pooled state is warm, a frame costs one allocation, the returned
// blob.
func TestEncodePNGSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so steady-state allocation counts don't hold")
	}
	img := solverFrame("heat", 80)
	defer ReleaseFrame(img)
	for i := 0; i < 3; i++ { // warm the pool
		if _, err := EncodePNG(img); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := EncodePNG(img); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("steady-state EncodePNG allocates %.1f objects/frame, want <= 1", avg)
	}
}

// TestCompressFieldSteadyStateAllocs pins CompressField's budget: once
// its pooled scratch is warm, a call costs one allocation, the
// returned blob.
func TestCompressFieldSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so steady-state allocation counts don't hold")
	}
	g := hotSpotGrid()
	for i := 0; i < 3; i++ { // warm the pool
		if _, err := CompressField(g); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := CompressField(g); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("steady-state CompressField allocates %.1f objects/call, want <= 1", avg)
	}
}

// TestRenderReusesReleasedFrame checks the pool actually hands a
// released raster back for matching geometry.
func TestRenderReusesReleasedFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so identity reuse doesn't hold")
	}
	g := hotSpotGrid()
	opts := RenderOptions{Width: 64, Height: 64}
	img1, _ := Render(g, opts)
	ReleaseFrame(img1)
	img2, _ := Render(g, opts)
	defer ReleaseFrame(img2)
	if img1 != img2 {
		t.Error("released frame was not reused for identical geometry")
	}
}

// TestRenderGeometryChangeSafe checks a pooled frame of the wrong size
// is never returned.
func TestRenderGeometryChangeSafe(t *testing.T) {
	g := hotSpotGrid()
	img1, _ := Render(g, RenderOptions{Width: 64, Height: 64})
	ReleaseFrame(img1)
	img2, _ := Render(g, RenderOptions{Width: 32, Height: 48})
	defer ReleaseFrame(img2)
	if img2.Bounds().Dx() != 32 || img2.Bounds().Dy() != 48 {
		t.Errorf("bounds = %v after geometry change", img2.Bounds())
	}
}

// TestReleaseFrameNil makes sure releasing nil is a no-op.
func TestReleaseFrameNil(t *testing.T) {
	ReleaseFrame(nil)
}
