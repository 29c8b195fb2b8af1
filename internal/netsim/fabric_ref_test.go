package netsim

import (
	"math"
	"sort"

	"repro/internal/event"
)

// refFabric is the fabric as it stood before the dense kernel, frozen as the
// oracle of the differential tests: active flows and every resource's flows
// live in maps, each pass re-sorts all flows by ID, keeps its per-resource
// state in a map[*refResource]*rstate, and scans every flow for each
// bottleneck. The production Fabric must reproduce its rates, completion
// times and event counts bit for bit. Do not optimise it.
type refFabric struct {
	eng    *event.Engine
	up     []*refResource
	down   []*refResource
	disk   []*refResource
	mem    []*refResource
	flows  map[*refFlow]struct{}
	nextID int64

	lastUpdate float64
	timer      *event.Timer

	baseCap map[*refResource]float64

	partition []int
	choke     *refResource

	TotalBytesMoved float64
	CompletedFlows  int64
}

type refResource struct {
	Capacity float64
	flows    map[*refFlow]struct{}
}

type refFlow struct {
	ID        int64
	Bytes     float64
	remaining float64
	rate      float64
	resources []*refResource
	done      func()
	finished  bool
	cancelled bool
	src, dst  int
}

func newRefResource(capacity float64) *refResource {
	return &refResource{Capacity: capacity, flows: map[*refFlow]struct{}{}}
}

func newRefFabric(eng *event.Engine, n int, cfg Config) *refFabric {
	f := &refFabric{
		eng:     eng,
		flows:   make(map[*refFlow]struct{}),
		baseCap: make(map[*refResource]float64),
	}
	for i := 0; i < n; i++ {
		f.up = append(f.up, newRefResource(cfg.UplinkBps))
		f.down = append(f.down, newRefResource(cfg.DownlinkBps))
		f.disk = append(f.disk, newRefResource(cfg.DiskBps))
		f.mem = append(f.mem, newRefResource(DefaultMemoryBps))
	}
	return f
}

func (fb *refFabric) serving(n int, tier Tier) *refResource {
	if tier == TierMemory {
		return fb.mem[n]
	}
	return fb.disk[n]
}

func (fb *refFabric) LocalReadTier(n int, bytes float64, tier Tier, done func()) *refFlow {
	return fb.start(n, n, bytes, done, fb.serving(n, tier))
}

func (fb *refFabric) RemoteReadCapTier(src, dst int, bytes, capBps float64, tier Tier, done func()) *refFlow {
	if src == dst {
		return fb.LocalReadTier(src, bytes, tier, done)
	}
	res := []*refResource{fb.serving(src, tier), fb.up[src], fb.down[dst]}
	if capBps > 0 {
		res = append(res, newRefResource(capBps))
	}
	return fb.start(src, dst, bytes, done, res...)
}

func (fb *refFabric) Transfer(src, dst int, bytes float64, done func()) *refFlow {
	if src == dst {
		return fb.LocalReadTier(src, bytes, TierDisk, done)
	}
	return fb.start(src, dst, bytes, done, fb.up[src], fb.down[dst])
}

func (fb *refFabric) start(src, dst int, bytes float64, done func(), resources ...*refResource) *refFlow {
	if fb.crossesPartition(src, dst) {
		resources = append(resources, fb.choke)
	}
	fb.nextID++
	fl := &refFlow{ID: fb.nextID, Bytes: bytes, remaining: bytes, resources: resources, done: done, src: src, dst: dst}
	if bytes == 0 {
		fb.eng.Schedule(0, func() {
			if fl.cancelled {
				return
			}
			fl.finished = true
			fb.CompletedFlows++
			if done != nil {
				done()
			}
		})
		return fl
	}
	fb.activate(fl)
	return fl
}

func (fb *refFabric) activate(fl *refFlow) {
	fb.advance()
	fb.flows[fl] = struct{}{}
	for _, r := range fl.resources {
		r.flows[fl] = struct{}{}
	}
	fb.reallocateReference()
}

func (fb *refFabric) Cancel(fl *refFlow) {
	if fl == nil || fl.finished || fl.cancelled {
		return
	}
	fl.cancelled = true
	fb.advance()
	fb.detach(fl)
	fb.reallocateReference()
}

func (fb *refFabric) detach(fl *refFlow) {
	delete(fb.flows, fl)
	for _, r := range fl.resources {
		delete(r.flows, fl)
	}
}

func (fb *refFabric) advance() {
	now := fb.eng.Now()
	dt := now - fb.lastUpdate
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for fl := range fb.flows {
		fl.remaining -= fl.rate * dt
		if fl.remaining < 0 {
			fl.remaining = 0
		}
	}
}

// reallocateReference is the map-and-sort progressive-filling solver.
func (fb *refFabric) reallocateReference() {
	if fb.timer != nil {
		fb.eng.Cancel(fb.timer)
		fb.timer = nil
	}
	if len(fb.flows) == 0 {
		return
	}
	type rstate struct {
		residual float64
		unfrozen int
	}
	states := make(map[*refResource]*rstate)
	var active []*refResource
	flows := fb.sortedFlows()
	for _, fl := range flows {
		fl.rate = -1
		for _, r := range fl.resources {
			st, ok := states[r]
			if !ok {
				st = &rstate{residual: r.Capacity}
				states[r] = st
				active = append(active, r)
			}
			st.unfrozen++
		}
	}
	remaining := len(flows)
	for remaining > 0 {
		var bottleneck *refResource
		best := math.Inf(1)
		for _, r := range active {
			st := states[r]
			if st.unfrozen == 0 {
				continue
			}
			share := st.residual / float64(st.unfrozen)
			if share < best {
				best = share
				bottleneck = r
			}
		}
		if bottleneck == nil {
			panic("netsim: progressive filling found no bottleneck")
		}
		for _, fl := range flows {
			if fl.rate >= 0 || !refCrosses(fl, bottleneck) {
				continue
			}
			fl.rate = best
			remaining--
			for _, r := range fl.resources {
				st := states[r]
				st.residual -= best
				if st.residual < 0 {
					st.residual = 0
				}
				st.unfrozen--
			}
		}
	}
	soonest := math.Inf(1)
	for fl := range fb.flows {
		if fl.rate <= 0 {
			continue
		}
		if t := fl.remaining / fl.rate; t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		panic("netsim: active flows but no positive rates")
	}
	fb.timer = fb.eng.Schedule(soonest, fb.onCompletion)
}

func (fb *refFabric) sortedFlows() []*refFlow {
	out := make([]*refFlow, 0, len(fb.flows))
	for fl := range fb.flows {
		out = append(out, fl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func refCrosses(fl *refFlow, r *refResource) bool {
	for _, rr := range fl.resources {
		if rr == r {
			return true
		}
	}
	return false
}

func (fb *refFabric) onCompletion() {
	fb.timer = nil
	fb.advance()
	const eps = 1e-9
	now := fb.eng.Now()
	var finished []*refFlow
	for _, fl := range fb.sortedFlows() {
		if fl.remaining <= fl.Bytes*eps+eps || now+fl.remaining/fl.rate == now {
			finished = append(finished, fl)
		}
	}
	for _, fl := range finished {
		fl.remaining = 0
		fl.finished = true
		fb.detach(fl)
		fb.TotalBytesMoved += fl.Bytes
		fb.CompletedFlows++
	}
	fb.reallocateReference()
	for _, fl := range finished {
		if fl.done != nil {
			fl.done()
		}
	}
}

func (fb *refFabric) crossesPartition(src, dst int) bool {
	return fb.partition != nil && fb.partition[src] != fb.partition[dst]
}

func (fb *refFabric) SetPartition(groups []int, chokeBps float64) {
	if fb.partition != nil {
		fb.ClearPartition()
	}
	fb.advance()
	fb.partition = append([]int(nil), groups...)
	fb.choke = newRefResource(chokeBps)
	for _, fl := range fb.sortedFlows() {
		if fb.crossesPartition(fl.src, fl.dst) {
			fl.resources = append(fl.resources, fb.choke)
			fb.choke.flows[fl] = struct{}{}
		}
	}
	fb.reallocateReference()
}

func (fb *refFabric) ClearPartition() {
	if fb.partition == nil {
		return
	}
	fb.advance()
	for _, fl := range fb.sortedFlows() {
		if _, ok := fb.choke.flows[fl]; !ok {
			continue
		}
		for i, r := range fl.resources {
			if r == fb.choke {
				fl.resources = append(fl.resources[:i], fl.resources[i+1:]...)
				break
			}
		}
	}
	fb.partition = nil
	fb.choke = nil
	fb.reallocateReference()
}

func (fb *refFabric) scale(r *refResource, factor float64) {
	base, ok := fb.baseCap[r]
	if !ok {
		base = r.Capacity
		fb.baseCap[r] = base
	}
	r.Capacity = base * factor
	if factor == 1 {
		delete(fb.baseCap, r)
	}
}

func (fb *refFabric) ScaleLinks(node int, factor float64) {
	fb.advance()
	fb.scale(fb.up[node], factor)
	fb.scale(fb.down[node], factor)
	fb.reallocateReference()
}

func (fb *refFabric) ScaleDisk(node int, factor float64) {
	fb.advance()
	fb.scale(fb.disk[node], factor)
	fb.reallocateReference()
}
