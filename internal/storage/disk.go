package storage

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Op distinguishes media reads from media writes.
type Op int

// Disk operations.
const (
	OpRead Op = iota
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// DiskParams describes a rotating disk. The defaults (SeagateHDD)
// reproduce the paper's Seagate 500 GB 7200 rpm drive as calibrated
// against Table III.
type DiskParams struct {
	Capacity units.Bytes
	RPM      float64
	// MinSeek is the track-to-track seek; MaxSeek the full-stroke seek.
	// Seek time grows with the square root of the fractional distance,
	// the standard first-order HDD seek curve. SettleTime is the fixed
	// head-settle cost paid on every repositioning regardless of
	// distance — it dominates short random hops (a 16 KiB random read
	// inside a 4 GiB file costs ~8.5 ms, Table III).
	MinSeek, MaxSeek, SettleTime units.Seconds
	// SeqReadBW / SeqWriteBW are streaming media bandwidths in bytes/s.
	SeqReadBW, SeqWriteBW float64
	// SequentialWindow is how close a request must start to the previous
	// request's end to count as sequential (no seek, no rotational miss).
	SequentialWindow units.Bytes

	// IdlePower is drawn whenever the disk spins (watts).
	IdlePower units.Watts
	// ReadXferDyn / WriteXferDyn are added while the head streams data.
	ReadXferDyn, WriteXferDyn units.Watts
	// SeekDyn is added while the arm moves / waits for rotation.
	SeekDyn units.Watts

	// DeterministicRotation replaces the sampled rotational latency with
	// its mean (half a revolution), for exactly reproducible unit tests.
	DeterministicRotation bool

	// StandbyAfter spins the platters down after that much idle time
	// (0 disables spindown). StandbyPower is drawn while spun down;
	// SpinupTime is added to the next request's positioning.
	StandbyAfter units.Seconds
	StandbyPower units.Watts
	SpinupTime   units.Seconds
}

// SeagateHDD returns parameters calibrated to the paper's drive:
// 500 GB, 7200 rpm, ~4.2 ms average seek, 120/159 MB/s streaming
// read/write, and dynamic power levels that regenerate Table III's
// full-system rows above the 104.5 W node idle.
func SeagateHDD() DiskParams {
	return DiskParams{
		Capacity:         500 * 1000 * units.MiB, // marketing 500 GB
		RPM:              7200,
		MinSeek:          0.5 * units.Millisecond,
		MaxSeek:          8.1 * units.Millisecond,
		SettleTime:       3.0 * units.Millisecond,
		SeqReadBW:        120e6,
		SeqWriteBW:       159e6,
		SequentialWindow: 256 * units.KiB,
		IdlePower:        5.0,
		ReadXferDyn:      12.5,
		WriteXferDyn:     10.2,
		SeekDyn:          2.5,
	}
}

// SamsungSSD returns parameters for a SATA consumer SSD of the era —
// the paper's Future Work asks how the conclusions shift on
// flash-based devices. "Seek" collapses to a fixed ~60 µs lookup, there
// is no rotational latency to speak of, and dynamic power is a few
// watts.
func SamsungSSD() DiskParams {
	return DiskParams{
		Capacity:         512 * 1000 * units.MiB,
		RPM:              6_000_000, // 10 µs "revolution": negligible rotational wait
		MinSeek:          0.01 * units.Millisecond,
		MaxSeek:          0.02 * units.Millisecond,
		SettleTime:       0.05 * units.Millisecond,
		SeqReadBW:        500e6,
		SeqWriteBW:       450e6,
		SequentialWindow: 256 * units.KiB,
		IdlePower:        1.2,
		ReadXferDyn:      2.8,
		WriteXferDyn:     3.8,
		SeekDyn:          0.5,
	}
}

// DiskStats aggregates what the disk has done, for attribution and
// the Table III "disk dynamic energy" row.
type DiskStats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten units.Bytes
	Seeks                   uint64
	SeekTime                units.Seconds
	TransferTime            units.Seconds
	Spinups                 uint64
	// SeqBytes / RandBytes classify traffic by access pattern (a
	// request is random when it required a seek) — the observation the
	// Future Work runtime advisor consumes.
	SeqBytes, RandBytes units.Bytes
	// MinOffset/MaxOffset bound the touched region (the advisor's span).
	MinOffset, MaxOffset units.Bytes
}

// touch widens the touched span to cover [offset, offset+n).
func (s *DiskStats) touch(offset, n units.Bytes) {
	if s.MaxOffset == 0 || offset < s.MinOffset {
		s.MinOffset = offset
	}
	if offset+n > s.MaxOffset {
		s.MaxOffset = offset + n
	}
}

// RandomFraction returns the fraction of bytes moved by seeking
// requests.
func (s DiskStats) RandomFraction() float64 {
	total := s.SeqBytes + s.RandBytes
	if total == 0 {
		return 0
	}
	return float64(s.RandBytes) / float64(total)
}

// MeanOpSize returns the average request size.
func (s DiskStats) MeanOpSize() units.Bytes {
	ops := s.Reads + s.Writes
	if ops == 0 {
		return 0
	}
	return (s.BytesRead + s.BytesWritten) / units.Bytes(ops)
}

// Device is a block store the page cache and filesystem can run on: a
// raw disk, a striped array (RAID-0), or an NVRAM burst buffer over a
// disk.
type Device interface {
	// Submit enqueues a request and returns its completion time; done
	// (optional) runs then. Submit never advances the clock.
	Submit(op Op, offset, n units.Bytes, done func()) sim.Time
	// FreeAt returns when the device next becomes idle.
	FreeAt() sim.Time
	// Idle reports whether no work is queued or in flight.
	Idle() bool
	// Capacity returns the addressable size.
	Capacity() units.Bytes
	// Stats returns the spinning media's statistics: a disk's own, an
	// array's summed over its members, a burst buffer's backing
	// store's.
	Stats() DiskStats
	// SetFaults attaches a fault injector to the media (nil detaches
	// it); a burst buffer forwards it to its backing store.
	SetFaults(inj *fault.Injector)
}

// Disk is the mechanical disk model. All requests are serialized FCFS
// on the media resource; the head position advances with each request,
// and seek + rotational latency are charged when a request does not
// continue where the previous one ended.
type Disk struct {
	params DiskParams
	engine *sim.Engine
	media  *sim.Resource
	domain *power.Domain
	rng    *xrand.Rand

	// head is the byte offset the head will be at after the last
	// *submitted* request completes (valid because FCFS preserves
	// submission order).
	head units.Bytes

	// faults, when set, adds latency spikes to request positioning.
	faults *fault.Injector

	standby bool

	// The power transitions, built once by NewDisk (nil without a
	// domain): to the seek level, to the read or write transfer level,
	// and back to idle if no request has queued behind the one whose
	// end the event marks.
	toSeek, toRead, toWrite, idleIfQuiet func()

	stats DiskStats
}

// NewDisk creates a disk on engine. domain is the disk's power domain
// (may be nil in pure-timing tests); rng drives rotational latency
// sampling and may be nil when DeterministicRotation is set.
func NewDisk(engine *sim.Engine, params DiskParams, domain *power.Domain, rng *xrand.Rand) *Disk {
	if params.Capacity <= 0 || params.RPM <= 0 {
		panic("storage: disk needs positive capacity and RPM")
	}
	if params.SeqReadBW <= 0 || params.SeqWriteBW <= 0 {
		panic("storage: disk needs positive bandwidths")
	}
	if rng == nil && !params.DeterministicRotation {
		panic("storage: sampled rotation needs an rng")
	}
	d := &Disk{
		params: params,
		engine: engine,
		media:  sim.NewResource(engine, nil, nil),
		domain: domain,
		rng:    rng,
	}
	if domain != nil {
		domain.SetLevel(params.IdlePower)
		idle := params.IdlePower
		level := func(w units.Watts) func() { return func() { domain.SetLevel(w) } }
		d.toSeek = level(idle + params.SeekDyn)
		d.toRead = level(idle + params.ReadXferDyn)
		d.toWrite = level(idle + params.WriteXferDyn)
		// An event fires exactly at its time, so at a request's end
		// FreeAt() <= Now() holds when nothing queued behind it.
		d.idleIfQuiet = func() {
			if d.media.FreeAt() <= engine.Now() {
				domain.SetLevel(idle)
			}
		}
	}
	return d
}

// Params returns the disk's configuration.
func (d *Disk) Params() DiskParams { return d.params }

// SetFaults attaches a fault injector; nil detaches it.
func (d *Disk) SetFaults(inj *fault.Injector) { d.faults = inj }

// Capacity returns the addressable size (Device interface).
func (d *Disk) Capacity() units.Bytes { return d.params.Capacity }

var _ Device = (*Disk)(nil)

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() DiskStats { return d.stats }

// RevolutionTime returns the time of one platter revolution.
func (d *Disk) RevolutionTime() units.Seconds {
	return units.Seconds(60 / d.params.RPM)
}

// seekTime returns the arm travel time for a byte-distance move:
// MinSeek + (MaxSeek-MinSeek) * sqrt(distance/capacity).
func (d *Disk) seekTime(distance units.Bytes) units.Seconds {
	if distance < 0 {
		distance = -distance
	}
	if distance == 0 {
		return 0
	}
	frac := float64(distance) / float64(d.params.Capacity)
	return d.params.SettleTime + d.params.MinSeek +
		units.Seconds(float64(d.params.MaxSeek-d.params.MinSeek)*math.Sqrt(frac))
}

// rotationalLatency returns the wait for the target sector to come
// under the head: uniform in [0, revolution), or exactly half a
// revolution in deterministic mode.
func (d *Disk) rotationalLatency() units.Seconds {
	rev := d.RevolutionTime()
	if d.params.DeterministicRotation {
		return rev / 2
	}
	return units.Seconds(d.rng.Float64()) * rev
}

// bandwidth returns the streaming rate for the operation.
func (d *Disk) bandwidth(op Op) float64 {
	if op == OpRead {
		return d.params.SeqReadBW
	}
	return d.params.SeqWriteBW
}

// ServiceTime previews the positioning + transfer cost of a request
// given the current head position, without submitting it.
//
// Three regimes:
//   - exactly sequential (offset == head): pure transfer;
//   - a short forward gap (<= SequentialWindow): the platter must still
//     rotate past the gap, so the gap is charged at media rate — this is
//     what makes hole-y elevator write-back slower than truly sequential
//     streaming (the paper's 31 s vs 27 s for random vs sequential
//     writes);
//   - anything else: arm seek plus rotational latency.
func (d *Disk) ServiceTime(op Op, offset, n units.Bytes) (positioning, transfer units.Seconds) {
	positioning, transfer, _ = d.serviceTimeClassified(op, offset, n)
	return positioning, transfer
}

// serviceTimeClassified additionally reports whether the request is
// seek-dominated — positioning cost exceeding transfer cost — which is
// the access-pattern classification the Future Work advisor observes.
// A long stream that merely begins with one seek stays "sequential".
func (d *Disk) serviceTimeClassified(op Op, offset, n units.Bytes) (positioning, transfer units.Seconds, seeked bool) {
	gap := offset - d.head
	arm := false
	switch {
	case gap == 0:
		// sequential, no positioning
	case gap > 0 && gap <= d.params.SequentialWindow:
		positioning = units.TransferTime(gap, d.bandwidth(op))
	default:
		if gap < 0 {
			gap = -gap
		}
		positioning = d.seekTime(gap) + d.rotationalLatency()
		arm = true
	}
	transfer = units.TransferTime(n, d.bandwidth(op))
	seeked = arm && positioning > transfer
	return positioning, transfer, seeked
}

// Submit enqueues a media request FCFS and returns its completion time.
// Power transitions (seek level, transfer level, back to idle) are
// scheduled on the disk's domain. If done is non-nil it runs at
// completion. Submit never advances the clock; callers that must wait
// pass the returned end time to Engine.AdvanceTo.
func (d *Disk) Submit(op Op, offset, n units.Bytes, done func()) (end sim.Time) {
	if offset < 0 || n < 0 || offset+n > d.params.Capacity {
		panic(fmt.Sprintf("storage: request [%d,+%d) outside disk capacity %d", offset, n, d.params.Capacity))
	}
	positioning, transfer, seeked := d.serviceTimeClassified(op, offset, n)
	if spike := d.faults.LatencySpike(); spike > 0 {
		// A recalibration pass / remapped-sector retry train: pure extra
		// head-positioning time, charged at seek power like any other
		// repositioning.
		positioning += spike
	}
	if d.standby {
		positioning += d.params.SpinupTime
		d.standby = false
		d.stats.Spinups++
	}
	d.head = offset + n

	start, end := d.media.Submit(positioning+transfer, done)

	if positioning > 0 {
		d.stats.Seeks++
		d.stats.SeekTime += positioning
	}
	d.stats.TransferTime += transfer
	if op == OpRead {
		d.stats.Reads++
		d.stats.BytesRead += n
	} else {
		d.stats.Writes++
		d.stats.BytesWritten += n
	}
	if seeked {
		d.stats.RandBytes += n
	} else {
		d.stats.SeqBytes += n
	}
	d.stats.touch(offset, n)

	if d.domain != nil {
		d.schedulePower(op, start, positioning, transfer)
	}
	if d.params.StandbyAfter > 0 {
		d.armStandby(end)
	}
	return end
}

// armStandby schedules the spindown check after the request completes.
// A later request arms its own check; this one then finds the media
// busy past end and does nothing.
func (d *Disk) armStandby(end sim.Time) {
	d.engine.At(end+d.params.StandbyAfter, func() {
		if d.media.FreeAt() > end {
			return // more work arrived
		}
		d.standby = true
		if d.domain != nil {
			d.domain.SetLevel(d.params.StandbyPower)
		}
	})
}

// Standby reports whether the platters are spun down.
func (d *Disk) Standby() bool { return d.standby }

// schedulePower sets the disk domain through seek -> transfer -> idle.
// FCFS serialization guarantees the phases of queued requests do not
// overlap, so absolute SetLevel calls are safe.
func (d *Disk) schedulePower(op Op, start sim.Time, positioning, transfer units.Seconds) {
	xfer := d.toRead
	if op == OpWrite {
		xfer = d.toWrite
	}
	if positioning > 0 {
		d.at(start, d.toSeek)
	}
	d.at(start+positioning, xfer)
	d.engine.At(start+positioning+transfer, d.idleIfQuiet)
}

// at runs a power transition now if t has come, else schedules it.
func (d *Disk) at(t sim.Time, transition func()) {
	if t <= d.engine.Now() {
		transition()
		return
	}
	d.engine.At(t, transition)
}

// Idle reports whether the media has no pending work.
func (d *Disk) Idle() bool { return d.media.Idle() }

// FreeAt returns when the media next becomes idle.
func (d *Disk) FreeAt() sim.Time { return d.media.FreeAt() }

// BusyTime returns cumulative media busy time.
func (d *Disk) BusyTime() units.Seconds { return d.media.BusyTime() }

// Utilization returns media busy time divided by elapsed time.
func (d *Disk) Utilization() float64 {
	now := d.engine.Now()
	if now <= 0 {
		return 0
	}
	return float64(d.media.BusyTime()) / float64(now)
}
