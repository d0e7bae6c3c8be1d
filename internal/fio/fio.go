// Package fio reimplements the fio disk-benchmark tests of the paper's
// §V-D: sequential and random reads and writes of 4 GiB against the
// simulated disk, measuring execution time, full-system power, and the
// disk's dynamic power and energy (Table III). The request sizes are
// the paper's, 128 KiB sequential and 16 KiB random, and the disk's
// dynamic power is the residual above the node's own idle floor
// (node.IdlePower: 104.5 W on the paper's HDD node, as in the paper);
// only the file size is configurable.
//
// Random tests use a shuffled full-coverage block map, like fio's
// default randommap: every block is touched exactly once, in random
// order.
package fio

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/units"
)

// The paper's request sizes.
const (
	seqBlock  = 128 * units.KiB
	randBlock = 16 * units.KiB
)

// TestKind selects one of the four Table III workloads.
type TestKind int

// The fio tests of Table III.
const (
	SeqRead TestKind = iota
	RandRead
	SeqWrite
	RandWrite
)

func (k TestKind) String() string {
	switch k {
	case SeqRead:
		return "Sequential Read"
	case RandRead:
		return "Random Read"
	case SeqWrite:
		return "Sequential Write"
	case RandWrite:
		return "Random Write"
	default:
		return fmt.Sprintf("TestKind(%d)", int(k))
	}
}

// Config describes a run.
type Config struct {
	// FileSize is the total data moved (4 GiB in the paper).
	FileSize units.Bytes
}

// DefaultConfig returns the paper's 4 GiB test setup.
func DefaultConfig() Config { return Config{FileSize: 4 * units.GiB} }

// Result is one Table III row.
type Result struct {
	Kind TestKind

	ExecTime units.Seconds
	// FullSystemPower is the run's average wall power.
	FullSystemPower units.Watts
	// DiskDynPower is the residual above the node's idle floor — the
	// paper's attribution of everything non-idle to the disk.
	DiskDynPower units.Watts
	// DiskDynEnergy = DiskDynPower × ExecTime.
	DiskDynEnergy units.Joules
	// FullSystemEnergy is the total wall energy of the run.
	FullSystemEnergy units.Joules
}

// Run executes one fio test on the node. The file is preallocated
// contiguously and dropped from the cache first, so reads are cold and
// writes trigger no allocation or journaling — matching fio on a
// preallocated test file.
func Run(n *node.Node, kind TestKind, cfg Config) Result {
	if cfg.FileSize <= 0 {
		panic("fio: file size must be positive")
	}
	name := fmt.Sprintf("fio-%d.dat", kind)
	f := n.FS.Create(name)
	n.WithIO(func() {
		f.AppendSparse(cfg.FileSize)
		f.Fsync()
		n.FS.DropCaches()
	})
	n.WaitDiskIdle()

	block := seqBlock
	if kind == RandRead || kind == RandWrite {
		block = randBlock
	}
	blocks := int(cfg.FileSize / block)
	order := make([]int, blocks)
	for i := range order {
		order[i] = i
	}
	if kind == RandRead || kind == RandWrite {
		rng := n.Rand()
		for i := blocks - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}

	startT := n.Now()
	startE := n.SystemEnergy()
	n.WithIO(func() {
		for _, b := range order {
			off := units.Bytes(b) * block
			switch kind {
			case SeqRead, RandRead:
				f.ReadSparseAt(off, block)
			case SeqWrite, RandWrite:
				f.WriteSparseAt(off, block)
			}
		}
		if kind == SeqWrite || kind == RandWrite {
			f.Fsync()
		}
	})
	n.WaitDiskIdle()

	elapsed := n.Now() - startT
	energy := n.SystemEnergy() - startE
	avg := units.AveragePower(energy, elapsed)
	dyn := avg - node.IdlePower(n.Profile)
	if dyn < 0 {
		dyn = 0
	}
	n.FS.Delete(name)
	return Result{
		Kind:             kind,
		ExecTime:         elapsed,
		FullSystemPower:  avg,
		DiskDynPower:     dyn,
		DiskDynEnergy:    units.Energy(dyn, elapsed),
		FullSystemEnergy: energy,
	}
}

// RunAll executes the four tests in Table III order on fresh state.
func RunAll(n *node.Node, cfg Config) []Result {
	kinds := []TestKind{SeqRead, RandRead, SeqWrite, RandWrite}
	out := make([]Result, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, Run(n, k, cfg))
	}
	return out
}
