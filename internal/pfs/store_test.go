package pfs

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/field"
	"repro/internal/units"
)

func testGrid(fill float64) *field.Grid {
	g := field.New(16, 16)
	for i := range g.Data {
		g.Data[i] = fill + float64(i)
	}
	return g
}

// TestStoreConcurrentWrites exercises the encode-buffer sharing bug
// under -race: two runs writing through one Store used to interleave
// encodes into the same scratch buffer, shipping one run's field bytes
// under the other's name. The store mutex serializes them; each name
// must read back its own grid and header.
func TestStoreConcurrentWrites(t *testing.T) {
	client := quietClient(1)
	fs := New(client, quietParams(), 10)
	store := NewStore(fs)

	const perWriter = 8
	grids := [2]*field.Grid{testGrid(100), testGrid(5000)}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := string(rune('a'+w)) + "-ckpt"
				if err := store.WriteCheckpoint(name, grids[w], uint64(w*1000+i), float64(w), units.MiB); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < 2; w++ {
		g, step, simTime, err := store.ReadCheckpoint(string(rune('a'+w)) + "-ckpt")
		if err != nil {
			t.Fatalf("writer %d read-back: %v", w, err)
		}
		if simTime != float64(w) || step != uint64(w*1000+perWriter-1) {
			t.Errorf("writer %d header swapped: step %d, time %v", w, step, simTime)
		}
		for i, v := range g.Data {
			if v != grids[w].Data[i] {
				t.Fatalf("writer %d cell %d = %v, want %v (cross-run corruption)", w, i, v, grids[w].Data[i])
			}
		}
	}
}

// TestReadCheckpointTruncatedPrefix feeds the store prefixes cut at
// every interesting boundary; each must come back as ErrCorrupt with
// zero values — never a panic, never a partial grid.
func TestReadCheckpointTruncatedPrefix(t *testing.T) {
	client := quietClient(2)
	fs := New(client, quietParams(), 11)
	store := NewStore(fs)

	full := checkpoint.EncodePrefix(testGrid(1), 42, 3.25, units.MiB)
	cuts := []int{0, 5, checkpoint.HeaderSize - 1, checkpoint.HeaderSize, checkpoint.HeaderSize + 3, len(full) - 1}
	for _, n := range cuts {
		name := "trunc"
		fs.Delete(name)
		if err := fs.WriteFile(name, full[:n], units.Bytes(len(full))+units.MiB); err != nil {
			t.Fatalf("cut %d: write: %v", n, err)
		}
		g, step, simTime, err := store.ReadCheckpoint(name)
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("cut %d: error = %v, want ErrCorrupt", n, err)
		}
		if g != nil || step != 0 || simTime != 0 {
			t.Errorf("cut %d: leaked values: grid %v, step %d, time %v", n, g, step, simTime)
		}
	}

	// The untruncated prefix still round-trips.
	fs.Delete("trunc")
	if err := fs.WriteFile("trunc", full, units.Bytes(len(full))+units.MiB); err != nil {
		t.Fatal(err)
	}
	if _, step, _, err := store.ReadCheckpoint("trunc"); err != nil || step != 42 {
		t.Errorf("full prefix: step %d, err %v; want 42, nil", step, err)
	}
}
