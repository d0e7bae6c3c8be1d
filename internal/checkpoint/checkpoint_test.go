package checkpoint

import (
	"errors"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/xrand"
)

func testFS(t *testing.T) (*sim.Engine, *storage.FileSystem) {
	t.Helper()
	e := sim.NewEngine()
	p := storage.SeagateHDD()
	p.DeterministicRotation = true
	d := storage.NewDisk(e, p, nil, xrand.New(1))
	c := storage.NewPageCache(e, d, storage.LinuxPageCache())
	return e, storage.NewFileSystem(e, d, c, storage.DefaultFS())
}

func sampleGrid() *field.Grid {
	g := field.New(16, 12)
	for i := range g.Data {
		g.Data[i] = math.Sin(float64(i) * 0.1)
	}
	return g
}

func TestRoundTrip(t *testing.T) {
	_, fs := testFS(t)
	f := fs.Create("ckpt-000")
	g := sampleGrid()
	Write(f, g, 42, 3.5, 4096)

	h, got, err := Read(f)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if h.Step != 42 || h.SimTime != 3.5 || h.NX != 16 || h.NY != 12 || h.PayloadBytes != 4096 {
		t.Errorf("header = %+v", h)
	}
	for i := range g.Data {
		if got.Data[i] != g.Data[i] {
			t.Fatalf("field differs at cell %d: %v != %v", i, got.Data[i], g.Data[i])
		}
	}
}

func TestRoundTripSurvivesColdRead(t *testing.T) {
	_, fs := testFS(t)
	f := fs.Create("ckpt")
	g := sampleGrid()
	Write(f, g, 1, 0.5, units.MiB)
	f.Fsync()
	fs.DropCaches()
	_, got, err := Read(f)
	if err != nil {
		t.Fatalf("cold Read: %v", err)
	}
	if got.At(3, 3) != g.At(3, 3) {
		t.Error("cold read returned different data")
	}
}

func TestTotalSize(t *testing.T) {
	want := units.Bytes(HeaderSize) + 16*12*8 + 4096
	if got := TotalSize(16, 12, 4096); got != want {
		t.Errorf("TotalSize = %d, want %d", got, want)
	}
	_, fs := testFS(t)
	f := fs.Create("c")
	Write(f, field.New(16, 12), 0, 0, 4096)
	if f.Size() != want {
		t.Errorf("file size = %d, want %d", f.Size(), want)
	}
}

func TestCorruptMagicDetected(t *testing.T) {
	_, fs := testFS(t)
	f := fs.Create("c")
	Write(f, sampleGrid(), 0, 0, 0)
	f.WriteAt([]byte("XXXXXXXX"), 0) // clobber magic
	if _, _, err := Read(f); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt magic not detected: %v", err)
	}
}

func TestCorruptFieldDetectedByCRC(t *testing.T) {
	_, fs := testFS(t)
	f := fs.Create("c")
	Write(f, sampleGrid(), 0, 0, 0)
	f.WriteAt([]byte{0xDE, 0xAD}, HeaderSize+100) // flip field bytes
	if _, _, err := Read(f); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt field not detected: %v", err)
	}
}

func TestTruncatedFileDetected(t *testing.T) {
	_, fs := testFS(t)
	f := fs.Create("c")
	// Header claims a big payload the file doesn't have.
	g := field.New(8, 8)
	Write(f, g, 0, 0, 0)
	// Rewrite header with a huge payload claim.
	h := Header{Version: 1, NX: 8, NY: 8, PayloadBytes: 1 << 30, GridCRC: 0}
	f.WriteAt(encodeHeader(h), 0)
	if _, _, err := Read(f); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated file not detected: %v", err)
	}
}

func TestImplausibleDimensionsDetected(t *testing.T) {
	_, fs := testFS(t)
	f := fs.Create("c")
	Write(f, sampleGrid(), 0, 0, 0)
	h := Header{Version: 1, NX: 0, NY: 12}
	f.WriteAt(encodeHeader(h), 0)
	if _, _, err := Read(f); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero-dim grid not detected: %v", err)
	}
}

func TestHeaderEncodeDecode(t *testing.T) {
	h := Header{Version: 3, Step: 123456, SimTime: -2.25, NX: 7, NY: 9, PayloadBytes: 77, GridCRC: 0xCAFEBABE}
	got, err := decodeHeader(encodeHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("decode(encode(h)) = %+v, want %+v", got, h)
	}
}

func TestReadChargesPayloadTime(t *testing.T) {
	e, fs := testFS(t)
	f := fs.Create("c")
	Write(f, sampleGrid(), 0, 0, 64*units.MiB)
	f.Fsync()
	fs.DropCaches()
	start := e.Now()
	if _, _, err := Read(f); err != nil {
		t.Fatal(err)
	}
	elapsed := float64(e.Now() - start)
	// At least the media transfer time of 64 MiB.
	minWant := float64(64*units.MiB) / 130e6
	if elapsed < minWant {
		t.Errorf("cold checkpoint read took %v, want >= %v (payload must be charged)", elapsed, minWant)
	}
}
