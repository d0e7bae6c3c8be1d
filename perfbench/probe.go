package main

import (
	"slices"
	"time"
)

// probeRefMS is the probe's median time on the reference host, a 2-vCPU
// Xeon VM. Normalized times are in milliseconds at that host's speed.
const probeRefMS = 1.8

// probe is a fixed piece of host work that belongs to the benchmark,
// not the program: sorting pseudo-random keys and hashing a buffer. Its
// time tracks how fast the host runs at the moment, so dividing an
// operation's time by the probes around it cancels host speed, which on
// a shared machine drifts by a third over seconds to minutes, and keeps
// the program's speed.
type probe struct {
	keys, scratch []uint64
	buf           []byte
	sink          uint64
}

func newProbe() *probe {
	p := &probe{keys: make([]uint64, 1<<14), scratch: make([]uint64, 1<<14), buf: make([]byte, 1<<18)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range p.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.keys[i] = x
	}
	for i := range p.buf {
		p.buf[i] = byte(i * 31)
	}
	return p
}

// run times one probe in milliseconds.
func (p *probe) run() float64 {
	start := time.Now()
	copy(p.scratch, p.keys)
	slices.Sort(p.scratch)
	h := uint64(14695981039346656037)
	for _, b := range p.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	p.sink += h + p.scratch[len(p.scratch)/2]
	return ms(time.Since(start))
}

// probeWindow is how many probes on each side of an operation its host
// speed is judged by.
const probeWindow = 2

// hostFactors returns, for each of a client's operations in order, the
// factor that scales its host time to the reference host's speed:
// probeRefMS ÷ the median of the probes run just before operations
// i-probeWindow to i+probeWindow (probes[i] runs just before operation
// i).
func hostFactors(probes []float64) []float64 {
	out := make([]float64, len(probes))
	for i := range probes {
		lo, hi := max(i-probeWindow, 0), min(i+probeWindow+1, len(probes))
		out[i] = ratio(probeRefMS, median(append([]float64(nil), probes[lo:hi]...)))
	}
	return out
}
