package storage

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// StripedDisk is a software RAID-0 array: N member disks with a fixed
// stripe unit. A request is split into per-member fragments that
// proceed in parallel; the request completes when the slowest member
// finishes — the Future Work "evaluation on systems using RAID disks".
type StripedDisk struct {
	members []*Disk
	stripe  units.Bytes
	engine  *sim.Engine
	// span holds only the touched region, in array offsets: the
	// members know only their own.
	span DiskStats
}

// NewStripedDisk builds a RAID-0 array of n identical disks. Each
// member gets its own power domain on the bus when bus is non-nil
// (named "disk0", "disk1", ...).
func NewStripedDisk(engine *sim.Engine, n int, params DiskParams, stripe units.Bytes, bus *power.Bus, rng *xrand.Rand) *StripedDisk {
	if n <= 0 {
		panic("storage: RAID needs at least one member")
	}
	if stripe <= 0 {
		panic("storage: RAID needs a positive stripe unit")
	}
	s := &StripedDisk{stripe: stripe, engine: engine}
	for i := 0; i < n; i++ {
		var dom *power.Domain
		if bus != nil {
			dom = bus.NewDomain(fmt.Sprintf("disk%d", i), 0)
		}
		var memberRng *xrand.Rand
		if rng != nil {
			memberRng = rng.Split()
		}
		s.members = append(s.members, NewDisk(engine, params, dom, memberRng))
	}
	return s
}

// Members returns the underlying disks.
func (s *StripedDisk) Members() []*Disk { return s.members }

// SetFaults attaches a fault injector to every member disk. The members
// share one injector (and thus one decision stream), keeping the fault
// schedule a function of request submission order alone.
func (s *StripedDisk) SetFaults(inj *fault.Injector) {
	for _, m := range s.members {
		m.SetFaults(inj)
	}
}

// Capacity returns the array capacity (sum of members).
func (s *StripedDisk) Capacity() units.Bytes {
	return units.Bytes(len(s.members)) * s.members[0].Capacity()
}

// Submit splits the request across members stripe by stripe and
// completes when every fragment has. done (optional) fires then.
func (s *StripedDisk) Submit(op Op, offset, n units.Bytes, done func()) sim.Time {
	if offset < 0 || n < 0 || offset+n > s.Capacity() {
		panic(fmt.Sprintf("storage: RAID request [%d,+%d) outside capacity %d", offset, n, s.Capacity()))
	}
	s.span.touch(offset, n)
	var latest sim.Time = s.engine.Now()
	for n > 0 {
		stripeIdx := offset / s.stripe
		within := offset % s.stripe
		take := min64(n, s.stripe-within)
		member := int(stripeIdx) % len(s.members)
		memberOff := (stripeIdx/units.Bytes(len(s.members)))*s.stripe + within
		end := s.members[member].Submit(op, memberOff, take, nil)
		if end > latest {
			latest = end
		}
		offset += take
		n -= take
	}
	if done != nil {
		s.engine.At(latest, done)
	}
	return latest
}

// FreeAt returns when the slowest member becomes idle.
func (s *StripedDisk) FreeAt() sim.Time {
	var latest sim.Time
	for _, m := range s.members {
		if t := m.FreeAt(); t > latest {
			latest = t
		}
	}
	return latest
}

// Idle reports whether every member is idle.
func (s *StripedDisk) Idle() bool {
	for _, m := range s.members {
		if !m.Idle() {
			return false
		}
	}
	return true
}

// Stats sums member statistics; the touched span is the array's own,
// in array offsets.
func (s *StripedDisk) Stats() DiskStats {
	out := DiskStats{MinOffset: s.span.MinOffset, MaxOffset: s.span.MaxOffset}
	for _, m := range s.members {
		st := m.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.BytesRead += st.BytesRead
		out.BytesWritten += st.BytesWritten
		out.Seeks += st.Seeks
		out.SeekTime += st.SeekTime
		out.TransferTime += st.TransferTime
		out.Spinups += st.Spinups
		out.SeqBytes += st.SeqBytes
		out.RandBytes += st.RandBytes
	}
	return out
}

var _ Device = (*StripedDisk)(nil)
