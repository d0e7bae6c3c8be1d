package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/field"
	"repro/internal/node"
	"repro/internal/units"
)

// CheckpointStore is where the post-processing pipeline keeps its
// checkpoints: the node-local filesystem by default, or a remote
// parallel filesystem (internal/pfs) in the Future Work experiments.
// All calls block (advance virtual time) including durability.
type CheckpointStore interface {
	// WriteCheckpoint durably stores one checkpoint, replacing any
	// earlier file of the same name (so a retry starts clean). A
	// transient error leaves no usable checkpoint behind.
	WriteCheckpoint(name string, g *field.Grid, step uint64, simTime float64, payload units.Bytes) error
	// ReadCheckpoint fetches a checkpoint back, cold, returning the
	// field and the solver step/time recorded at capture.
	ReadCheckpoint(name string) (*field.Grid, uint64, float64, error)
	// Barrier separates the write and read phases (sync + drop caches
	// or the distributed equivalent).
	Barrier()
}

// localStore is the default CheckpointStore: the node's own disk
// through its page cache and filesystem, fsync per checkpoint. It
// carries a checkpoint.Encoder so the ~128 KiB encode buffer is reused
// across the run's events; a store therefore serves one run at a time,
// like the node it wraps.
type localStore struct {
	n     *node.Node
	async bool
	enc   *checkpoint.Encoder
}

func (s localStore) WriteCheckpoint(name string, g *field.Grid, step uint64, simTime float64, payload units.Bytes) error {
	// Replace any partial file a failed earlier attempt left behind.
	s.n.FS.Delete(name)
	f := s.n.FS.Create(name)
	var err error
	s.n.WithIO(func() {
		if err = s.enc.Write(f, g, step, simTime, payload); err != nil {
			return
		}
		if !s.async {
			f.Fsync()
		}
	})
	return err
}

func (s localStore) ReadCheckpoint(name string) (*field.Grid, uint64, float64, error) {
	f := s.n.FS.Open(name)
	if f == nil {
		return nil, 0, 0, fmt.Errorf("core: checkpoint %q not found", name)
	}
	var g *field.Grid
	var h checkpoint.Header
	var err error
	s.n.WithIO(func() {
		h, g, err = checkpoint.Read(f)
	})
	if err != nil {
		// Never hand out fields of a partially-decoded header.
		return nil, 0, 0, err
	}
	return g, h.Step, h.SimTime, nil
}

func (s localStore) Barrier() {
	s.n.WithIO(func() {
		s.n.FS.Sync()
		s.n.FS.DropCaches()
	})
}
