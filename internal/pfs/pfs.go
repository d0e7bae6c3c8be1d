// Package pfs models a striped parallel filesystem (Lustre/GPFS-style)
// for the paper's last Future Work item: "evaluation on multi-node
// systems running parallel file systems to understand the impact of
// [the] file system on energy consumption".
//
// A compute node (the client) stripes each file across N object storage
// servers. All traffic traverses the client's single network uplink —
// the realistic bottleneck — while server-side disk writes proceed in
// parallel: the throughput win. Every server's static power burns for
// the whole job: the energy cost.
package pfs

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/netio"
	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/units"
)

// Params configures the parallel filesystem.
type Params struct {
	// Servers is the object-storage-server count.
	Servers int
	// StripeSize is the per-server chunk of a striped file.
	StripeSize units.Bytes
	// Link is the client's uplink model (all stripes serialize on it).
	Link netio.LinkParams
	// ServerProfile builds each storage server (typically the same
	// node hardware, dedicated to I/O).
	ServerProfile node.Profile
}

// DefaultParams returns a 4-server stripe over a single 10 GbE uplink
// with 1 MiB stripes on the paper's node hardware.
func DefaultParams() Params {
	p := node.SandyBridge()
	p.OSNoiseSigma = 0 // servers idle quietly between requests
	return Params{
		Servers:       4,
		StripeSize:    1 * units.MiB,
		Link:          netio.TenGigE(),
		ServerProfile: p,
	}
}

// server is one object storage server.
type server struct {
	n     *node.Node
	alloc units.Bytes
	ioCPU *sim.Resource
}

// FileSystem is the client-side handle. All servers share the client
// node's engine.
type FileSystem struct {
	params  Params
	client  *node.Node
	engine  *sim.Engine
	uplink  *netio.Link
	servers []*server

	files map[string]*fileMeta
	stats Stats

	// faults, when set, injects server drops on whole-file requests and
	// bit-rot on delivered headers.
	faults *fault.Injector
}

// fileMeta records a striped file's layout and retained content.
type fileMeta struct {
	size    units.Bytes
	extents []stripeExtent
	// header holds the retained real bytes (checkpoint header + field);
	// the bulk payload is sparse.
	header []byte
}

type stripeExtent struct {
	server int
	r      storage.Range
}

// Stats aggregates client-observed traffic.
type Stats struct {
	FilesWritten uint64
	BytesWritten units.Bytes
	BytesRead    units.Bytes
}

// New builds the parallel filesystem: Servers storage nodes on the
// client's engine, reached through one shared uplink (modeled as the
// link between the client and the first server's switch port).
func New(client *node.Node, params Params, seed uint64) *FileSystem {
	if params.Servers <= 0 || params.StripeSize <= 0 {
		panic("pfs: needs positive server count and stripe size")
	}
	fs := &FileSystem{
		params: params,
		client: client,
		engine: client.Engine,
		files:  map[string]*fileMeta{},
	}
	for i := 0; i < params.Servers; i++ {
		sn := node.NewOnEngine(client.Engine, params.ServerProfile, seed+uint64(i)*131)
		fs.servers = append(fs.servers, &server{
			n:     sn,
			alloc: params.ServerProfile.FS.DataStart,
			ioCPU: sim.NewResource(client.Engine,
				func() { sn.SetLoad(1, power.IntensityIO, 0.3) }, sn.SetIdle),
		})
	}
	fs.uplink = netio.Connect(client, fs.servers[0].n, params.Link)
	return fs
}

// ServersEnergy sums the storage nodes' cumulative energy.
func (fs *FileSystem) ServersEnergy() units.Joules {
	var sum units.Joules
	for _, s := range fs.servers {
		sum += s.n.SystemEnergy()
	}
	return sum
}

// Stats returns the client-observed counters.
func (fs *FileSystem) Stats() Stats { return fs.stats }

// SetFaults attaches a fault injector; nil detaches it. The injector
// covers the RPC layer here (drops, header rot); the server disks keep
// their own timing model and are not individually faulted.
func (fs *FileSystem) SetFaults(inj *fault.Injector) { fs.faults = inj }

// dropStall models a server missing its RPC window: the client blocks
// out to the timeout, then the operation fails transiently.
func (fs *FileSystem) dropStall(op, name string) error {
	fs.engine.Advance(fs.faults.DropTimeout())
	return fmt.Errorf("pfs: %s %q: server timed out: %w", op, name, fault.ErrTransient)
}

// requestCPU is a server's CPU time to handle one stripe request; the
// ioCPU resource's hooks raise the server's load for it and restore
// idle once no request is queued.
const requestCPU units.Seconds = 0.0002

// WriteFile stripes a file across the servers and blocks until every
// stripe is durable on a server disk. header is retained verbatim; the
// remaining bytes are sparse. The client pays one serialization pass at
// memory speed plus the uplink transfer; server disks absorb stripes in
// parallel as they arrive.
//
// An injected server drop fails the write before any stripe ships: the
// client stalls out to the drop timeout and no partial file is
// registered, so a retry starts clean.
func (fs *FileSystem) WriteFile(name string, header []byte, total units.Bytes) error {
	if total < units.Bytes(len(header)) {
		panic("pfs: total smaller than header")
	}
	if _, ok := fs.files[name]; ok {
		panic(fmt.Sprintf("pfs: file %q already exists", name))
	}
	if fs.faults.ServerDrop() {
		return fs.dropStall("write", name)
	}
	meta := &fileMeta{size: total, header: append([]byte(nil), header...)}

	// Client-side serialization pass.
	fs.engine.Advance(units.TransferTime(total, 3e9))

	remaining := total
	stripeIdx := 0
	for remaining > 0 {
		chunk := fs.params.StripeSize
		if chunk > remaining {
			chunk = remaining
		}
		srvIdx := stripeIdx % len(fs.servers)
		srv := fs.servers[srvIdx]
		r := storage.Range{Start: srv.alloc, End: srv.alloc + chunk}
		srv.alloc += chunk
		meta.extents = append(meta.extents, stripeExtent{server: srvIdx, r: r})

		// Each stripe serializes on the shared uplink, then its server
		// writes it; different servers' disks overlap.
		fs.uplink.Send(chunk, func() {
			srv.ioCPU.Submit(requestCPU, nil)
			srv.n.Device.Submit(storage.OpWrite, r.Start, r.Len(), nil)
		})
		stripeIdx++
		remaining -= chunk
	}
	fs.drain()
	fs.files[name] = meta
	fs.stats.FilesWritten++
	fs.stats.BytesWritten += total
	return nil
}

// ReadFile fetches a file back: server disks read stripes in parallel,
// the uplink ships them to the client. Returns the retained header.
//
// Injected faults: a server drop stalls the client out to the timeout
// and fails the read (nothing transferred); bit-rot flips bits in the
// delivered header copy only — the stored stripes are unharmed, so a
// re-read may come back clean.
func (fs *FileSystem) ReadFile(name string) ([]byte, error) {
	meta, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: file %q not found", name)
	}
	if fs.faults.ServerDrop() {
		return nil, fs.dropStall("read", name)
	}
	for _, ext := range meta.extents {
		srv := fs.servers[ext.server]
		r := ext.r
		srv.ioCPU.Submit(requestCPU, nil)
		end := srv.n.Device.Submit(storage.OpRead, r.Start, r.Len(), nil)
		fs.engine.At(end, func() {
			fs.uplink.Send(r.Len(), nil)
		})
	}
	fs.drain()
	// Client-side delivery pass.
	fs.engine.Advance(units.TransferTime(meta.size, 3e9))
	fs.stats.BytesRead += meta.size
	out := append([]byte(nil), meta.header...)
	fs.faults.Rot(out)
	return out, nil
}

// Delete forgets a file (the experiments write each file once).
func (fs *FileSystem) Delete(name string) { delete(fs.files, name) }

// Barrier waits for all outstanding server activity — the distributed
// sync between pipeline phases. Server-side caching is not modeled
// (writes are direct), so there is nothing to drop.
func (fs *FileSystem) Barrier() { fs.drain() }

// drain advances the shared engine until the uplink and every server
// is idle — the client's foreground wait.
func (fs *FileSystem) drain() {
	for {
		next := fs.engine.Now()
		if t := fs.uplink.FreeAt(); t > next {
			next = t
		}
		for _, s := range fs.servers {
			if t := s.n.Device.FreeAt(); t > next {
				next = t
			}
			if t := s.ioCPU.FreeAt(); t > next {
				next = t
			}
		}
		if next <= fs.engine.Now() {
			return
		}
		fs.engine.AdvanceTo(next)
	}
}
