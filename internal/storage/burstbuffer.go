package storage

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// The NVRAM tier is a PCIe card of the era: 16 GiB, 2.2/1.8 GB/s,
// 20 µs per request, draining to the backing store after 2 s of rest.
const (
	nvramCapacity      = 16 * units.GiB
	nvramReadBW        = 2.2e9 // bytes/s
	nvramWriteBW       = 1.8e9 // bytes/s
	nvramAccessLatency = 20 * units.Microsecond
	nvramActiveDyn     = units.Watts(6.0) // added to the idle level while busy
	nvramDrainDelay    = units.Seconds(2) // rest before the background drain
)

// NVRAMIdlePower is the tier's idle draw, part of an NVRAM node's idle
// floor.
const NVRAMIdlePower = units.Watts(2.0)

// BurstBuffer is an NVRAM tier in front of a backing device — the deep
// memory hierarchy of Gamell et al. [26] and the paper's Future Work
// ("flash-based devices such as NVRAM"). Writes land in NVRAM at NVRAM
// speed and drain to the backing store in the background; reads are
// served from NVRAM while resident, from the backing store after.
type BurstBuffer struct {
	engine  *sim.Engine
	backing Device
	tier    *sim.Resource

	resident RangeSet
	draining bool
	misses   []Range // a read's scratch, never live across AdvanceTo

	stats BurstBufferStats
}

// BurstBufferStats aggregates tier behaviour.
type BurstBufferStats struct {
	HitBytes, MissBytes units.Bytes
	AbsorbedWrites      units.Bytes
	DrainedBytes        units.Bytes
}

// NewBurstBuffer builds the tier over a backing device. domain (may be
// nil) carries the NVRAM power.
func NewBurstBuffer(engine *sim.Engine, backing Device, domain *power.Domain) *BurstBuffer {
	var busy, idle func()
	if domain != nil {
		domain.SetLevel(NVRAMIdlePower)
		busy = func() { domain.SetLevel(NVRAMIdlePower + nvramActiveDyn) }
		idle = func() { domain.SetLevel(NVRAMIdlePower) }
	}
	return &BurstBuffer{
		engine:  engine,
		backing: backing,
		tier:    sim.NewResource(engine, busy, idle),
	}
}

// TierStats returns a copy of the tier counters.
func (b *BurstBuffer) TierStats() BurstBufferStats { return b.stats }

// Stats returns the backing store's media statistics (Device).
func (b *BurstBuffer) Stats() DiskStats { return b.backing.Stats() }

// SetFaults forwards the injector to the backing device (the NVRAM tier
// itself is assumed fault-free; the spinning media under it is not).
func (b *BurstBuffer) SetFaults(inj *fault.Injector) { b.backing.SetFaults(inj) }

// ResidentBytes returns how much data currently lives in the tier.
func (b *BurstBuffer) ResidentBytes() units.Bytes { return b.resident.Bytes() }

// Capacity returns the backing store's capacity (the tier is
// transparent).
func (b *BurstBuffer) Capacity() units.Bytes { return b.backing.Capacity() }

// nvramService returns the tier cost of moving n bytes.
func (b *BurstBuffer) nvramService(op Op, n units.Bytes) units.Seconds {
	bw := nvramReadBW
	if op == OpWrite {
		bw = nvramWriteBW
	}
	return nvramAccessLatency + units.TransferTime(n, bw)
}

// submitTier runs one request on the NVRAM resource, whose hooks
// bracket it with the tier's power levels.
func (b *BurstBuffer) submitTier(op Op, n units.Bytes, done func()) sim.Time {
	_, end := b.tier.Submit(b.nvramService(op, n), done)
	return end
}

// Submit implements Device. Writes are absorbed by the tier (up to its
// capacity; overflow spills straight to backing) and drained later;
// reads split between the tier and the backing store.
func (b *BurstBuffer) Submit(op Op, offset, n units.Bytes, done func()) sim.Time {
	if offset < 0 || n < 0 || offset+n > b.Capacity() {
		panic(fmt.Sprintf("storage: burst-buffer request [%d,+%d) outside capacity %d", offset, n, b.Capacity()))
	}
	r := Range{offset, offset + n}
	switch op {
	case OpWrite:
		if b.resident.Bytes()+n > nvramCapacity {
			// Tier full: spill synchronously to the backing store.
			return b.backing.Submit(op, offset, n, done)
		}
		b.resident.Add(r)
		b.stats.AbsorbedWrites += n
		end := b.submitTier(OpWrite, n, done)
		b.scheduleDrain()
		return end
	case OpRead:
		// One walk splits the request: what the tier does not hold
		// is missed, the rest hits. Submit never advances the clock,
		// so nothing re-enters this read while it walks the scratch.
		b.misses = b.resident.Gaps(r, b.misses[:0])
		hitBytes := n
		for _, m := range b.misses {
			hitBytes -= m.Len()
		}
		var latest sim.Time = b.engine.Now()
		if hitBytes > 0 {
			b.stats.HitBytes += hitBytes
			if end := b.submitTier(OpRead, hitBytes, nil); end > latest {
				latest = end
			}
		}
		for _, m := range b.misses {
			b.stats.MissBytes += m.Len()
			if end := b.backing.Submit(OpRead, m.Start, m.Len(), nil); end > latest {
				latest = end
			}
		}
		if done != nil {
			b.engine.At(latest, done)
		}
		return latest
	default:
		panic(fmt.Sprintf("storage: unknown op %d", op))
	}
}

// scheduleDrain arms the background drain after the rest delay.
func (b *BurstBuffer) scheduleDrain() {
	if b.draining {
		return
	}
	b.draining = true
	b.engine.After(nvramDrainDelay, b.drainStep)
}

// drainStep ships one resident range to the backing store and
// reschedules until the tier is empty.
func (b *BurstBuffer) drainStep() {
	if b.resident.Empty() {
		b.draining = false
		return
	}
	r := b.resident.First()
	b.resident.Remove(r)
	b.stats.DrainedBytes += r.Len()
	b.backing.Submit(OpWrite, r.Start, r.Len(), func() {
		b.drainStep()
	})
}

// FreeAt returns when both the tier and the backing store go idle.
func (b *BurstBuffer) FreeAt() sim.Time {
	t := b.tier.FreeAt()
	if bt := b.backing.FreeAt(); bt > t {
		t = bt
	}
	return t
}

// Idle reports whether the tier, the drain, and the backing store are
// all quiet.
func (b *BurstBuffer) Idle() bool {
	return b.tier.Idle() && b.backing.Idle() && !b.draining
}

var _ Device = (*BurstBuffer)(nil)
