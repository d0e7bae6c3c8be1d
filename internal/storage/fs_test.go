package storage

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// testFS assembles a deterministic disk + small-threshold cache + fs.
func testFS(t *testing.T) (*sim.Engine, *Disk, *PageCache, *FileSystem) {
	t.Helper()
	e := sim.NewEngine()
	p := SeagateHDD()
	p.DeterministicRotation = true
	d := NewDisk(e, p, nil, xrand.New(1))
	c := NewPageCache(e, d, smallCacheParams())
	fs := NewFileSystem(e, d, c)
	return e, d, c, fs
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("ckpt")
	data := []byte("the quick brown fox jumps over the lazy dog")
	f.WriteAt(data, 0)
	got := make([]byte, len(data))
	f.ReadAt(got, 0)
	if !bytes.Equal(got, data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
}

func TestRoundTripSurvivesSyncAndDrop(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("ckpt")
	data := make([]byte, 64*units.KiB)
	for i := range data {
		data[i] = byte(i * 7)
	}
	f.WriteAt(data, 0)
	f.Fsync()
	fs.DropCaches()
	got := make([]byte, len(data))
	f.ReadAt(got, 0)
	if !bytes.Equal(got, data) {
		t.Error("data corrupted across fsync + drop_caches")
	}
}

func TestSparseReadsAreDeterministic(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("bulk")
	f.AppendSparse(units.MiB)
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	f.ReadAt(a, 1000)
	f.ReadAt(b, 1000)
	if !bytes.Equal(a, b) {
		t.Error("sparse pattern not deterministic")
	}
	var zero int
	for _, v := range a {
		if v == 0 {
			zero++
		}
	}
	if zero > len(a)/16 {
		t.Errorf("sparse pattern suspiciously zero-heavy: %d/%d", zero, len(a))
	}
}

func TestMixedRealAndSparseContent(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("mixed")
	header := []byte("HEADERv1")
	f.WriteAt(header, 0)
	f.AppendSparse(units.MiB)
	got := make([]byte, 16)
	f.ReadAt(got, 0)
	if !bytes.Equal(got[:8], header) {
		t.Errorf("header = %q, want %q", got[:8], header)
	}
}

func TestOverwriteRetainedData(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("f")
	f.WriteAt([]byte("aaaaaaaaaa"), 0)
	f.WriteAt([]byte("BBBB"), 3)
	got := make([]byte, 10)
	f.ReadAt(got, 0)
	if string(got) != "aaaBBBBaaa" {
		t.Errorf("overwrite = %q, want aaaBBBBaaa", got)
	}
}

func TestContiguousAllocationIsOneRun(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("big")
	f.AppendSparse(64 * units.MiB)
	g := fs.Create("next")
	g.AppendSparse(units.MiB)
	for i := 1; i < len(f.extents); i++ {
		if f.extents[i].Start != f.extents[i-1].End {
			t.Fatalf("extent %d starts at %d, not where extent %d ends (%d)", i, f.extents[i].Start, i-1, f.extents[i-1].End)
		}
	}
	if len(f.extents) != 16 || g.extents[0].Start != f.extents[15].End {
		t.Errorf("64 MiB file has %d extents, next file starts at %d; want 16 and %d", len(f.extents), g.extents[0].Start, f.extents[len(f.extents)-1].End)
	}
}

func TestFsyncCommitsJournalPerNewExtent(t *testing.T) {
	_, d, _, fs := testFS(t)
	f := fs.Create("j")
	f.AppendSparse(6 * units.MiB) // 2 extents, below background dirty
	writesBefore := d.Stats().Writes
	f.Fsync()
	// Expect 2 extent drains + 2 journal records hitting media.
	if got := d.Stats().Writes - writesBefore; got < 4 {
		t.Errorf("fsync produced %d media writes, want >= 4 (data + journal)", got)
	}
	// Second fsync with nothing new: no journal commits, no data.
	writesBefore = d.Stats().Writes
	f.Fsync()
	if got := d.Stats().Writes - writesBefore; got != 0 {
		t.Errorf("idempotent fsync produced %d media writes", got)
	}
}

func TestFsyncDurableAndDirtyFree(t *testing.T) {
	_, _, c, fs := testFS(t)
	f := fs.Create("f")
	f.AppendSparse(10 * units.MiB)
	f.Fsync()
	if c.DirtyBytes() != 0 {
		t.Errorf("dirty after fsync = %v, want 0", c.DirtyBytes())
	}
}

func TestDeleteFreesSpaceAndInvalidates(t *testing.T) {
	_, d, _, fs := testFS(t)
	f := fs.Create("tmp")
	f.AppendSparse(8 * units.MiB)
	fs.Delete("tmp")
	if fs.Open("tmp") != nil {
		t.Error("deleted file still opens")
	}
	// Dirty data must not reach media after delete.
	fs.Sync()
	if d.Stats().BytesWritten != 0 {
		t.Errorf("deleted file's data reached media: %v", d.Stats().BytesWritten)
	}
	// Space is reusable: a contiguous file can land on the freed run.
	g := fs.Create("next")
	g.AppendSparse(8 * units.MiB)
	if g.Size() != 8*units.MiB {
		t.Errorf("Size = %v", g.Size())
	}
}

func TestCreateDuplicatePanics(t *testing.T) {
	_, _, _, fs := testFS(t)
	fs.Create("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate Create did not panic")
		}
	}()
	fs.Create("x")
}

func TestReadPastEOFPanics(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("f")
	f.AppendSparse(100)
	defer func() {
		if recover() == nil {
			t.Error("read past EOF did not panic")
		}
	}()
	f.ReadSparseAt(50, 100)
}

func TestFileSizeTracksAppends(t *testing.T) {
	_, _, _, fs := testFS(t)
	f := fs.Create("f")
	f.Append([]byte("abc"))
	f.AppendSparse(100)
	if f.Size() != 103 {
		t.Errorf("Size = %d, want 103", f.Size())
	}
}

// Property: any interleaving of real writes at random offsets reads
// back exactly, matching an in-memory model buffer.
func TestFileContentModelProperty(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data []byte
	}) bool {
		_, _, _, fs := testFS(t)
		file := fs.Create("p")
		const span = 1 << 16
		model := make([]byte, span+256)
		var size units.Bytes
		// Pre-fill with the file's sparse pattern so gaps compare equal.
		file.AppendSparse(units.Bytes(len(model)))
		size = units.Bytes(len(model))
		file.ReadAt(model, 0)
		for _, w := range writes {
			if len(w.Data) == 0 {
				continue
			}
			data := w.Data
			if len(data) > 200 {
				data = data[:200]
			}
			file.WriteAt(data, units.Bytes(w.Off))
			copy(model[w.Off:], data)
		}
		got := make([]byte, size)
		file.ReadAt(got, 0)
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFsyncWithoutExtentsWaitsOutBatch: Fsync is a barrier even for a
// file with no extents. Called while a background write-back batch is
// in flight, it returns with none in flight.
func TestFsyncWithoutExtentsWaitsOutBatch(t *testing.T) {
	_, _, c, fs := testFS(t)
	fs.Create("bg").AppendSparse(c.params.BackgroundDirty + units.MiB)
	if !c.inflight {
		t.Fatal("writing past the background threshold left no batch in flight")
	}
	fs.Create("empty").Fsync()
	if c.inflight {
		t.Error("Fsync of a file with no extents returned with a write-back batch in flight")
	}
}
