package pfs

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/units"
)

// Store adapts the parallel filesystem to core.CheckpointStore, so the
// post-processing pipeline can be pointed at remote storage with
// cfg.Store = pfs.NewStore(fs). It reuses one encode buffer across
// checkpoint events (WriteFile copies the prefix it keeps); a mutex
// serializes store operations so concurrent runs — easy to construct
// since Suite.RunAll went parallel — cannot interleave encodes into the
// shared buffer. The simulated timeline is still the client node's one
// engine: the lock makes concurrent use safe, not meaningful, and runs
// sharing a store should still be serialized for sensible timing.
type Store struct {
	mu  sync.Mutex
	fs  *FileSystem
	enc checkpoint.Encoder
	buf []byte
}

// NewStore wraps a filesystem.
func NewStore(fs *FileSystem) *Store { return &Store{fs: fs} }

var _ core.CheckpointStore = (*Store)(nil)

// SetFaults attaches a fault injector to the underlying filesystem.
func (s *Store) SetFaults(inj *fault.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fs.SetFaults(inj)
}

// WriteCheckpoint stripes one checkpoint across the servers: the real
// header+field prefix plus the sparse history payload. Any existing
// file of the same name is replaced, so a retry after a failed write
// starts clean.
func (s *Store) WriteCheckpoint(name string, g *field.Grid, step uint64, simTime float64, payload units.Bytes) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.enc.EncodeTo(s.buf[:0], g, step, simTime, payload)
	total := units.Bytes(len(s.buf)) + payload
	s.fs.Delete(name)
	return s.fs.WriteFile(name, s.buf, total)
}

// ReadCheckpoint fetches one back and validates its CRC.
func (s *Store) ReadCheckpoint(name string) (*field.Grid, uint64, float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prefix, err := s.fs.ReadFile(name)
	if err != nil {
		return nil, 0, 0, err
	}
	h, g, err := checkpoint.DecodePrefix(prefix)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("pfs: %s: %w", name, err)
	}
	return g, h.Step, h.SimTime, nil
}

// Barrier waits out all server-side activity between phases.
func (s *Store) Barrier() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fs.Barrier()
}
