// Package netio models the cluster interconnect for the paper's
// Future Work multi-node study ("evaluation on a multi-node system to
// study the effect of network I/O in addition to disk I/O"): a
// point-to-point link with bandwidth, latency, and NIC power on both
// endpoints, serialized FCFS like a real TX queue.
package netio

import (
	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// LinkParams describes one link.
type LinkParams struct {
	// Bandwidth in bytes/s (effective, after protocol overhead).
	Bandwidth float64
	// Latency is the one-way propagation + stack latency per message.
	Latency units.Seconds
	// NICIdle is each endpoint NIC's idle draw; NICActive is its draw
	// while a transfer is in flight.
	NICIdle, NICActive units.Watts
}

// TenGigE returns an effective 10 GbE link: ~1.1 GB/s, 50 µs, NICs at
// 4 W idle / 9 W active.
func TenGigE() LinkParams {
	return LinkParams{
		Bandwidth: 1.1e9,
		Latency:   50 * units.Microsecond,
		NICIdle:   4,
		NICActive: 9,
	}
}

// LinkStats aggregates traffic.
type LinkStats struct {
	Messages  uint64
	BytesSent units.Bytes
	BusyTime  units.Seconds
}

// Link is a serialized point-to-point connection between two nodes on
// the same engine. Each node gets a "nic" power domain on its bus.
type Link struct {
	params LinkParams
	tx     *sim.Resource
	nicA   *power.Domain
	nicB   *power.Domain
	stats  LinkStats
}

// Connect attaches a link between two nodes. Both nodes must share one
// engine (node.NewOnEngine); Connect panics otherwise.
func Connect(a, b *node.Node, params LinkParams) *Link {
	if a.Engine != b.Engine {
		panic("netio: linked nodes must share an engine")
	}
	if params.Bandwidth <= 0 || params.Latency < 0 {
		panic("netio: link needs positive bandwidth and non-negative latency")
	}
	l := &Link{
		params: params,
		nicA:   a.Bus.NewDomain("nic", params.NICIdle),
		nicB:   b.Bus.NewDomain("nic", params.NICIdle),
	}
	l.tx = sim.NewResource(a.Engine,
		func() { l.setNICs(params.NICActive) },
		func() { l.setNICs(params.NICIdle) })
	return l
}

// setNICs sets both ends' NIC power.
func (l *Link) setNICs(level units.Watts) {
	l.nicA.SetLevel(level)
	l.nicB.SetLevel(level)
}

// Params returns the link configuration.
func (l *Link) Params() LinkParams { return l.params }

// Stats returns a copy of the traffic counters.
func (l *Link) Stats() LinkStats { return l.stats }

// TransferTime returns the serialized cost of moving n bytes.
func (l *Link) TransferTime(n units.Bytes) units.Seconds {
	return l.params.Latency + units.TransferTime(n, l.params.Bandwidth)
}

// Send enqueues a transfer of n bytes and returns its completion time;
// done (optional) fires then. NIC power on both ends is raised for the
// busy interval. Send never advances the clock; a sender that blocks on
// delivery passes the returned time to Engine.AdvanceTo.
func (l *Link) Send(n units.Bytes, done func()) sim.Time {
	if n < 0 {
		panic("netio: negative transfer size")
	}
	service := l.TransferTime(n)
	_, end := l.tx.Submit(service, done)
	l.stats.Messages++
	l.stats.BytesSent += n
	l.stats.BusyTime += service
	return end
}

// Idle reports whether no transfer is queued or in flight.
func (l *Link) Idle() bool { return l.tx.Idle() }

// FreeAt returns when the link next becomes idle.
func (l *Link) FreeAt() sim.Time { return l.tx.FreeAt() }
