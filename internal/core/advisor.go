package core

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/storage"
	"repro/internal/units"
)

// WorkloadSpec describes an application's I/O behaviour in the terms
// the paper's proposed runtime uses: number and size of accesses and
// their access pattern (§VI-A: "power models that estimate the hard
// disk power based on the number of disk accesses, size of each access,
// and the corresponding access pattern").
type WorkloadSpec struct {
	Name       string
	ReadBytes  units.Bytes
	WriteBytes units.Bytes
	// OpSize is the request size (16 KiB in the paper's random fio tests).
	OpSize units.Bytes
	// RandomFraction is the fraction of operations that are random
	// (1 = fully random, 0 = fully sequential).
	RandomFraction float64
	// SpanBytes is the size of the on-disk region the random accesses
	// cover (the fio file size); it bounds seek distances.
	SpanBytes units.Bytes
}

// Prediction is the analytic time/energy estimate for one strategy.
type Prediction struct {
	Strategy     string
	Time         units.Seconds
	SystemEnergy units.Joules
	DiskDynamic  units.Joules
	// Exploratory reports whether the strategy preserves post-hoc
	// exploratory analysis capability.
	Exploratory bool
}

// Advice is the runtime's recommendation for a workload: the predicted
// cost of running it as-is, after software-directed data reorganization
// ([30], [31]), and after adopting an in-situ pipeline (which eliminates
// the simulation-data round trip entirely).
type Advice struct {
	Workload    WorkloadSpec
	AsIs        Prediction
	Reorganized Prediction
	InSitu      Prediction
	Recommended string
	Reason      string
}

// predictPhase estimates one direction (read or write) analytically
// from the disk parameters.
func predictPhase(p node.Profile, bytes units.Bytes, write bool, opSize units.Bytes, randomFrac float64, span units.Bytes) (units.Seconds, units.Watts) {
	if bytes == 0 {
		return 0, 0
	}
	d := p.Disk
	bw := d.SeqReadBW
	xferDyn := d.ReadXferDyn
	if write {
		bw = d.SeqWriteBW
		xferDyn = d.WriteXferDyn
	}
	xferTime := units.TransferTime(bytes, bw)

	var posTime units.Seconds
	if randomFrac > 0 && opSize > 0 {
		ops := float64(bytes / opSize)
		// Average seek within the span: settle + min + curve at the
		// mean random distance (~1/3 of the span).
		frac := float64(span) / 3 / float64(d.Capacity)
		if frac > 1 {
			frac = 1
		}
		// The product is rounded, so no GOARCH fuses it into the sum.
		seek := float64(d.SettleTime+d.MinSeek) + float64(float64(d.MaxSeek-d.MinSeek)*sqrt(frac))
		rot := 0.5 * 60 / d.RPM
		posTime = units.Seconds(ops * randomFrac * (seek + rot))
	}
	// Writes are absorbed by the page cache and drained by the elevator,
	// which converts random writes back into near-sequential passes; the
	// positioning penalty applies to reads only.
	if write {
		posTime = 0
	}
	total := xferTime + posTime
	// Average disk dynamic power over the phase: transfer power while
	// streaming, seek power while positioning.
	return total, units.AveragePower(units.Energy(xferDyn, xferTime)+units.Energy(d.SeekDyn, posTime), total)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for advisory accuracy.
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Predict estimates the workload's I/O time and energy on the platform.
func Predict(p node.Profile, w WorkloadSpec, strategy string, randomFrac float64, exploratory bool) Prediction {
	rt, rDyn := predictPhase(p, w.ReadBytes, false, w.OpSize, randomFrac, w.SpanBytes)
	wt, wDyn := predictPhase(p, w.WriteBytes, true, w.OpSize, randomFrac, w.SpanBytes)
	t := rt + wt
	// System power: static floor + small I/O CPU/DRAM + disk dynamic.
	ioCPU := units.Watts(float64(p.IOCores) * float64(power.IntensityIO) * float64(p.DynamicPerCore))
	ioDRAM := units.Watts(p.IODRAMGBs * p.DRAMPerGBs)
	diskDyn := units.Energy(rDyn, rt) + units.Energy(wDyn, wt)
	sys := units.Energy(node.IdlePower(p)+ioCPU+ioDRAM, t) + diskDyn
	return Prediction{
		Strategy:     strategy,
		Time:         t,
		SystemEnergy: sys,
		DiskDynamic:  diskDyn,
		Exploratory:  exploratory,
	}
}

// ObserveWorkload derives a WorkloadSpec from a device's accumulated
// statistics — the observation half of the Future Work runtime: the
// node watches its own disk traffic (counts, sizes, pattern) and feeds
// the result to Advise.
func ObserveWorkload(name string, st storage.DiskStats) WorkloadSpec {
	span := st.MaxOffset - st.MinOffset
	if span <= 0 {
		span = 1
	}
	op := st.MeanOpSize()
	if op <= 0 {
		op = 1
	}
	return WorkloadSpec{
		Name:           name,
		ReadBytes:      st.BytesRead,
		WriteBytes:     st.BytesWritten,
		OpSize:         op,
		RandomFraction: st.RandomFraction(),
		SpanBytes:      span,
	}
}

// Advise compares the three strategies for a workload and recommends
// one: in-situ when the I/O is already sequential (reorganization can't
// help and the round trip is pure cost), data reorganization when the
// workload is random-heavy (it recovers nearly all of the energy gap
// while preserving exploratory analysis — the paper's §V-D argument).
func Advise(p node.Profile, w WorkloadSpec) Advice {
	if w.OpSize <= 0 || w.SpanBytes <= 0 {
		panic("core: workload needs positive op size and span")
	}
	if w.RandomFraction < 0 || w.RandomFraction > 1 {
		panic(fmt.Sprintf("core: random fraction %v outside [0,1]", w.RandomFraction))
	}
	a := Advice{Workload: w}
	a.AsIs = Predict(p, w, "as-is post-processing", w.RandomFraction, true)
	a.Reorganized = Predict(p, w, "reorganized post-processing", 0, true)
	// In-situ eliminates the simulation-data round trip entirely; only
	// a negligible frame/reduced-product flush remains, which we fold
	// to zero for the advisory comparison (as the paper does).
	a.InSitu = Prediction{Strategy: "in-situ", Exploratory: false}

	reorgSavings := a.AsIs.SystemEnergy - a.Reorganized.SystemEnergy
	insituSavings := a.AsIs.SystemEnergy - a.InSitu.SystemEnergy
	switch {
	case insituSavings <= 0:
		a.Recommended = a.AsIs.Strategy
		a.Reason = "workload performs no significant I/O"
	case reorgSavings >= 0.9*insituSavings:
		a.Recommended = a.Reorganized.Strategy
		a.Reason = fmt.Sprintf(
			"reorganization recovers %.0f%% of the in-situ savings while retaining exploratory analysis",
			float64(reorgSavings)/float64(insituSavings)*100)
	default:
		a.Recommended = a.InSitu.Strategy
		a.Reason = fmt.Sprintf(
			"I/O is already mostly sequential; only eliminating the round trip saves the remaining %s",
			a.Reorganized.SystemEnergy)
	}
	return a
}
