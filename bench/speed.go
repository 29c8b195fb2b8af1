package bench

import (
	"sort"
	"time"
)

// hostSpeed scales timings to a reference host speed. The machines this
// benchmark runs on are shared, and their speed drifts by 10% and more over
// seconds to minutes, for the workload and for any other code alike; run to
// run, that drift swamps the differences the benchmark must resolve. A fixed
// reference loop, run between timed calls and never inside one, measures
// the drift, and every timing is reported as
//
//	scaled = raw × refNominal / loop
//
// where loop is the median of the last calibKeep calibrations: the time the
// workload would have taken on a host where the loop takes refNominal.
type hostSpeed struct {
	recent []time.Duration // ring of the last calibKeep calibrations
	next   int
	since  time.Duration // raw timed work since the last calibration
	keys   []uint64
	vals   []float64
	m      map[uint64]float64
}

const (
	refNominal = 400 * time.Microsecond
	calibEvery = 50 * time.Millisecond
	calibKeep  = 7
)

func newHostSpeed() *hostSpeed {
	return &hostSpeed{keys: make([]uint64, 0, 1<<11), vals: make([]float64, 0, 1<<12), m: make(map[uint64]float64, 1<<11)}
}

// referenceLoop is the fixed work the host's speed is measured with: map
// updates and lookups over pseudo-random keys, then a sort — the mix of
// hashing, branching and memory traffic the simulator and allocator do. It
// must never change: changing it rescales every reported time.
func (h *hostSpeed) referenceLoop() time.Duration {
	t := time.Now()
	clear(h.m)
	h.keys, h.vals = h.keys[:0], h.vals[:0]
	x := uint64(88172645463325252)
	for i := 0; i < 1<<11; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.keys = append(h.keys, x%(1<<12))
		h.m[x%(1<<12)] += float64(i)
	}
	for i := 0; i < 1<<12; i++ {
		h.vals = append(h.vals, h.m[h.keys[i%len(h.keys)]^uint64(i&1)])
	}
	sort.Float64s(h.vals)
	return time.Since(t)
}

// calibrate records the host's current speed: the fastest of three loops,
// so a preemption inside one does not count as a slow host.
func (h *hostSpeed) calibrate() {
	best := h.referenceLoop()
	for i := 0; i < 2; i++ {
		best = min(best, h.referenceLoop())
	}
	if len(h.recent) < calibKeep {
		h.recent = append(h.recent, best)
	} else {
		h.recent[h.next] = best
		h.next = (h.next + 1) % calibKeep
	}
	h.since = 0
}

// before runs ahead of a timed call: it calibrates once enough timed work
// has passed since the last calibration.
func (h *hostSpeed) before() {
	if len(h.recent) == 0 || h.since >= calibEvery {
		h.calibrate()
	}
}

// after scales a timed call's raw duration. A call long enough to span a
// drift is bracketed by a calibration on each side.
func (h *hostSpeed) after(raw time.Duration) time.Duration {
	h.since += raw
	if raw >= calibEvery {
		h.calibrate()
	}
	s := append([]time.Duration(nil), h.recent...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return time.Duration(float64(raw) * float64(refNominal) / float64(s[len(s)/2]))
}

// loopMs is the median recent reference-loop time, reported so a reader can
// tell a slow host from a slow change.
func (h *hostSpeed) loopMs() float64 {
	s := append([]time.Duration(nil), h.recent...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	return float64(s[len(s)/2]) / float64(time.Millisecond)
}
