// Package xrand provides a small, fast, deterministic random number
// generator for simulations.
//
// It is built on SplitMix64, which has excellent statistical properties for
// simulation purposes, a tiny state, and — crucially for reproducible
// experiments — supports cheap forking of independent sub-streams keyed by a
// label. Forked streams let each subsystem (placement, arrivals, task
// durations, ...) consume randomness without perturbing the others, so adding
// a consumer does not change every downstream result.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// The zero value is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// splitmix64 advances the state and returns the next 64 random bits.
func (r *Rand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 { return r.next() }

// Fork returns a new generator whose stream is independent of r's and is
// determined by r's seed and the label. Forking does not advance r.
func (r *Rand) Fork(label string) *Rand {
	h := r.state ^ 0x51A7C0DE00C0FFEE
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001B3
	}
	// Scramble once so similar labels diverge fully.
	s := &Rand{state: h}
	return &Rand{state: s.next()}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). Panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.next() % uint64(n))
}

// Range returns a uniform float in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntRange returns a uniform int in [lo, hi]. Panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [0, n).
// Panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates over an index map keeps this O(k) in space for
	// small k and O(n) at worst.
	if k*4 >= n {
		p := r.Perm(n)
		return p[:k]
	}
	chosen := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := chosen[j]
		if !ok {
			vj = j
		}
		vi, ok := chosen[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		chosen[j] = vi
	}
	return out
}

// Zipf draws a value in [0, n) with probability proportional to
// 1/(rank+1)^s using inverse-CDF sampling over precomputed weights.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over n items with exponent s (s >= 0).
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
