package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so the
// spreads this package prints match the ones a reviewer computes. One sample
// yields that sample three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// digest is a 64-bit FNV-1a hash fed with little-endian words.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(x uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(x&0xff)) * 1099511628211
		x >>= 8
	}
}

func (d *digest) int(x int)       { d.word(uint64(int64(x))) }
func (d *digest) float(x float64) { d.word(math.Float64bits(x)) }
func (d *digest) String() string  { return fmt.Sprintf("%016x", uint64(*d)) }
func (d *digest) str(s string) {
	d.int(len(s))
	for i := 0; i < len(s); i++ {
		d.word(uint64(s[i]))
	}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
