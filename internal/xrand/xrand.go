// Package xrand provides a small, fast, deterministic pseudo-random number
// generator (xoshiro256** seeded via SplitMix64) used everywhere the
// simulator needs noise: measurement jitter on the wall-power meter,
// OS background activity, workload address streams.
//
// The standard library's math/rand would work, but owning the generator
// guarantees bit-identical experiment output across Go releases, which
// matters for a reproduction whose deliverable is a set of numbers.
package xrand

import "math"

// Rand is a deterministic PRNG. It is not safe for concurrent use; give
// each goroutine its own instance (see Split).
type Rand struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

// New returns a generator seeded from seed via SplitMix64, so that
// similar seeds still produce uncorrelated streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

// Split derives an independent generator from r, advancing r.
// Use it to hand uncorrelated streams to sub-components.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }

// SeedFor derives a stream seed from a master seed and a string key:
// an FNV-1a hash of the key is mixed into the master through the
// SplitMix64 finalizer. The derivation depends only on (master, key),
// never on call order, so components seeded by name stay bit-identical
// no matter how many sibling streams exist or in what order they are
// created — the property the parallel experiment suite relies on.
func SeedFor(master uint64, key string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	z := master ^ (h + 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int64n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int64n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard-normal variate (Box–Muller, using both
// outputs alternately).
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		// Float64's scaling product and the squares are rounded, so
		// no GOARCH fuses them into the sums and differences.
		u = 2*float64(r.Float64()) - 1
		v = 2*float64(r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.haveSpare = true
	return u * m
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
