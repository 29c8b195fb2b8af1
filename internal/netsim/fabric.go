// Package netsim models data movement as max-min fair fluid flows over a set
// of capacitated resources.
//
// Each simulated node exposes three resources: an uplink, a downlink, and a
// local disk. A transfer (Flow) consumes one or more resources — a local disk
// read uses only {disk[n]}, a remote HDFS read uses {disk[src], up[src],
// down[dst]}, and a shuffle fetch uses {up[src], down[dst]}. Whenever the set
// of active flows changes, rates are recomputed with progressive filling
// (water-filling): repeatedly find the most contended resource, freeze all
// flows crossing it at the fair share, and continue with the residual
// capacities. The result is the classic max-min fair allocation.
//
// The pass runs on dense state: every resource keeps its active flows in an
// ID-ordered slice and carries its own per-pass residual and unfrozen count,
// so freezing a bottleneck walks only that resource's flows. Batch defers
// the pass across a burst of changes at one instant.
//
// Flow completions are event-driven: after every rate change the fabric
// advances each flow's remaining bytes and reschedules a single timer for the
// earliest completion.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/event"
)

// ResourceKind identifies what a resource models.
type ResourceKind int

const (
	// Uplink is a node's egress network capacity.
	Uplink ResourceKind = iota
	// Downlink is a node's ingress network capacity.
	Downlink
	// Disk is a node's local storage read/write bandwidth.
	Disk
	// FlowCap is a per-flow private rate limit.
	FlowCap
	// Memory is a node's in-memory block-cache read bandwidth — the serving
	// tier of a warm cache hit, far above disk.
	Memory
)

func (k ResourceKind) String() string {
	switch k {
	case Uplink:
		return "up"
	case Downlink:
		return "down"
	case Disk:
		return "disk"
	case FlowCap:
		return "flowcap"
	case Memory:
		return "mem"
	}
	return "unknown"
}

// Resource is a capacitated link or device shared by flows.
type Resource struct {
	Kind     ResourceKind
	Node     int
	Capacity float64 // bytes per second

	flows []*Flow // active flows crossing the resource, in ID order, once each

	// Progressive-filling state, meaningful while epoch equals the fabric's
	// current pass.
	epoch    uint64
	residual float64 // capacity not yet handed to frozen flows
	unfrozen int     // unfrozen flows crossing, counted once per listing
}

// Flow is an in-progress transfer across a set of resources.
type Flow struct {
	ID        int64
	Bytes     float64 // total size
	remaining float64
	rate      float64
	resources []*Resource
	cap       Resource // private rate cap; listed in resources when set
	done      func()
	started   float64
	finished  bool
	cancelled bool
	src, dst  int // endpoint nodes; -1 for custom flows
}

// Src returns the flow's source node (-1 for custom flows).
func (f *Flow) Src() int { return f.src }

// Dst returns the flow's destination node (-1 for custom flows).
func (f *Flow) Dst() int { return f.dst }

// Rate returns the flow's current max-min fair rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes left to transfer as of the last rate update.
func (f *Flow) Remaining() float64 { return f.remaining }

// Started returns the simulated time at which the flow was started.
func (f *Flow) Started() float64 { return f.started }

// Done reports whether the flow completed (not cancelled).
func (f *Flow) Done() bool { return f.finished }

// Fabric owns all node resources and active flows.
type Fabric struct {
	eng     *event.Engine
	up      []*Resource
	down    []*Resource
	disk    []*Resource
	mem     []*Resource
	flows   []*Flow // active flows in ID order
	nextID  int64
	latency float64

	lastUpdate float64
	timer      *event.Timer
	onTimer    func() // onCompletion, bound once so a pass allocates only its timer
	stamp      event.Stamp

	// Scratch reused across passes: the pass counter that validates
	// Resource state, and the resources a pass touched in first-touch order.
	epoch   uint64
	touched []*Resource

	// batch is the Batch nesting depth; dirty records a change inside it
	// whose pass is still owed.
	batch int
	dirty bool

	// baseCap remembers a resource's nominal capacity while it is scaled
	// away from it (degraded links, slow disks). Populated lazily on the
	// first scale so capacity adjustments made at construction time (e.g.
	// heterogeneous node speeds) are treated as the baseline.
	baseCap map[*Resource]float64

	// partition, when non-nil, assigns each node to a group; flows crossing
	// group boundaries are throttled through the shared choke resource.
	partition []int
	choke     *Resource

	// TotalBytesMoved accumulates completed flow volume for diagnostics.
	TotalBytesMoved float64
	// CompletedFlows counts flows that ran to completion.
	CompletedFlows int64
	// Reallocations counts progressive-filling passes.
	Reallocations int64
}

// Config describes per-node capacities in bytes per second.
type Config struct {
	UplinkBps   float64
	DownlinkBps float64
	DiskBps     float64
	// MemoryBps is the in-memory block-cache read bandwidth used by
	// memory-tier reads (TierMemory). Zero defaults to DefaultMemoryBps.
	// Memory resources are inert until a tiered read references them, so
	// the default leaves every disk-tier simulation byte-identical.
	MemoryBps float64
	// LatencySec is a fixed per-transfer setup delay (connection
	// establishment, RPC round-trip) charged before a flow starts moving
	// bytes. Zero disables it.
	LatencySec float64
}

// DefaultMemoryBps is the default memory-tier bandwidth: 10 GB/s, an order
// of magnitude above the testbed's SSD and well above any single link.
const DefaultMemoryBps = 10e9

// LinodeConfig mirrors the paper's testbed (§VI-A1): 2 Gbps uplink,
// 40 Gbps downlink, SSD local storage (~400 MB/s effective).
func LinodeConfig() Config {
	return Config{
		UplinkBps:   2e9 / 8,
		DownlinkBps: 40e9 / 8,
		DiskBps:     400e6,
	}
}

// NewFabric builds a fabric with n nodes, each with the given capacities.
func NewFabric(eng *event.Engine, n int, cfg Config) *Fabric {
	if n <= 0 {
		panic("netsim: NewFabric with n <= 0")
	}
	if cfg.UplinkBps <= 0 || cfg.DownlinkBps <= 0 || cfg.DiskBps <= 0 {
		panic("netsim: NewFabric with non-positive capacity")
	}
	f := &Fabric{
		eng:     eng,
		latency: cfg.LatencySec,
		baseCap: make(map[*Resource]float64),
	}
	f.onTimer = f.onCompletion
	memBps := cfg.MemoryBps
	if memBps <= 0 {
		memBps = DefaultMemoryBps
	}
	for i := 0; i < n; i++ {
		f.up = append(f.up, &Resource{Kind: Uplink, Node: i, Capacity: cfg.UplinkBps})
		f.down = append(f.down, &Resource{Kind: Downlink, Node: i, Capacity: cfg.DownlinkBps})
		f.disk = append(f.disk, &Resource{Kind: Disk, Node: i, Capacity: cfg.DiskBps})
		f.mem = append(f.mem, &Resource{Kind: Memory, Node: i, Capacity: memBps})
	}
	return f
}

// Tier selects the storage tier a read is served from.
type Tier int

const (
	// TierDisk serves from the node's local storage.
	TierDisk Tier = iota
	// TierMemory serves from the node's in-memory block cache.
	TierMemory
)

// serving returns node n's serving resource for a tier.
func (fb *Fabric) serving(n int, tier Tier) *Resource {
	if tier == TierMemory {
		return fb.mem[n]
	}
	return fb.disk[n]
}

// Nodes returns the number of nodes in the fabric.
func (fb *Fabric) Nodes() int { return len(fb.up) }

// ActiveFlows returns the number of flows currently in flight.
func (fb *Fabric) ActiveFlows() int { return len(fb.flows) }

// LocalRead starts a disk-only read of the given size on node n.
func (fb *Fabric) LocalRead(n int, bytes float64, done func()) *Flow {
	return fb.LocalReadTier(n, bytes, TierDisk, done)
}

// LocalReadTier starts a node-local read served from the given tier: the
// flow consumes the node's disk (TierDisk) or its cache-memory bandwidth
// (TierMemory, a warm block-cache hit).
func (fb *Fabric) LocalReadTier(n int, bytes float64, tier Tier, done func()) *Flow {
	return fb.start(n, n, bytes, 0, done, fb.serving(n, tier))
}

// RemoteRead starts a read of a block stored on src delivered to dst:
// it consumes the source disk, the source uplink and the destination
// downlink.
func (fb *Fabric) RemoteRead(src, dst int, bytes float64, done func()) *Flow {
	return fb.RemoteReadCap(src, dst, bytes, 0, done)
}

// RemoteReadCap is RemoteRead with an additional per-flow rate cap in
// bytes/second (0 = uncapped), modeling protocol overhead on single-stream
// remote block reads (HDFS remote reads do not reach line rate; the paper
// cites network reads as "as much as 20 times slower than local data
// access", §III-C). The cap is realized as a private resource embedded in
// the flow, so max-min fairness still applies below it.
func (fb *Fabric) RemoteReadCap(src, dst int, bytes, capBps float64, done func()) *Flow {
	return fb.RemoteReadCapTier(src, dst, bytes, capBps, TierDisk, done)
}

// RemoteReadCapTier is RemoteReadCap with the source's serving tier made
// explicit: a warm cache hit on src streams from its memory bandwidth
// instead of its disk, leaving the disk free for other readers — the
// network path (src uplink, dst downlink, optional per-flow cap) is
// unchanged.
func (fb *Fabric) RemoteReadCapTier(src, dst int, bytes, capBps float64, tier Tier, done func()) *Flow {
	if src == dst {
		return fb.LocalReadTier(src, bytes, tier, done)
	}
	return fb.start(src, dst, bytes, capBps, done, fb.serving(src, tier), fb.up[src], fb.down[dst])
}

// Transfer starts a memory-to-memory network transfer (e.g., a shuffle
// fetch) consuming the source uplink and destination downlink.
func (fb *Fabric) Transfer(src, dst int, bytes float64, done func()) *Flow {
	if src == dst {
		// Node-local shuffle data short-circuits the network; model it as a
		// (fast) local disk read of the map output.
		return fb.LocalRead(src, bytes, done)
	}
	return fb.start(src, dst, bytes, 0, done, fb.up[src], fb.down[dst])
}

// StartCustom starts a flow over an explicit resource set. Intended for
// tests and extensions. Custom flows carry no endpoints and are exempt from
// partitions.
func (fb *Fabric) StartCustom(bytes float64, done func(), resources ...*Resource) *Flow {
	return fb.start(-1, -1, bytes, 0, done, resources...)
}

// UplinkResource exposes node n's uplink (for StartCustom and tests).
func (fb *Fabric) UplinkResource(n int) *Resource { return fb.up[n] }

// DownlinkResource exposes node n's downlink.
func (fb *Fabric) DownlinkResource(n int) *Resource { return fb.down[n] }

// DiskResource exposes node n's disk.
func (fb *Fabric) DiskResource(n int) *Resource { return fb.disk[n] }

// MemoryResource exposes node n's cache-memory bandwidth.
func (fb *Fabric) MemoryResource(n int) *Resource { return fb.mem[n] }

// start creates a flow over resources, followed by its private cap when
// capBps > 0 and by the partition choke when it crosses the partition.
func (fb *Fabric) start(src, dst int, bytes, capBps float64, done func(), resources ...*Resource) *Flow {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("netsim: flow with invalid size %v", bytes))
	}
	if len(resources) == 0 {
		panic("netsim: flow with no resources")
	}
	fb.nextID++
	fl := &Flow{
		ID:        fb.nextID,
		Bytes:     bytes,
		remaining: bytes,
		done:      done,
		started:   fb.eng.Now(),
		src:       src,
		dst:       dst,
	}
	if capBps > 0 {
		fl.cap = Resource{Kind: FlowCap, Node: dst, Capacity: capBps}
		resources = append(resources, &fl.cap)
	}
	if fb.crossesPartition(src, dst) {
		resources = append(resources, fb.choke)
	}
	fl.resources = resources
	if bytes == 0 {
		// Zero-byte flows complete after the setup latency without
		// touching the rate allocation.
		fb.eng.Schedule(fb.latency, func() {
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
	if fb.latency > 0 {
		// Charge connection setup before the flow contends for bandwidth.
		fb.eng.Schedule(fb.latency, func() {
			if fl.cancelled {
				return
			}
			fb.activate(fl)
		})
		return fl
	}
	fb.activate(fl)
	return fl
}

// activate admits a flow into the fluid rate allocation.
func (fb *Fabric) activate(fl *Flow) {
	fb.advance()
	fb.flows = insertFlow(fb.flows, fl)
	for _, r := range fl.resources {
		r.flows = insertFlow(r.flows, fl)
	}
	fb.changed()
}

// Cancel aborts a flow in flight. Its done callback never runs. Cancelling a
// finished or already-cancelled flow is a no-op.
func (fb *Fabric) Cancel(fl *Flow) {
	if fl == nil || fl.finished || fl.cancelled {
		return
	}
	fl.cancelled = true
	fb.advance()
	fb.flows = removeFlow(fb.flows, fl)
	fb.detach(fl)
	fb.changed()
}

// detach takes fl off its resources' flow lists.
func (fb *Fabric) detach(fl *Flow) {
	for _, r := range fl.resources {
		r.flows = removeFlow(r.flows, fl)
	}
}

// flowIndex returns the position of the flow with the given ID in an
// ID-ordered list, or where it would be inserted, and whether it is there.
func flowIndex(list []*Flow, id int64) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(list) && list[lo].ID == id
}

// insertFlow adds fl to an ID-ordered list unless it is already there. Flows
// activate in ID order, so this is an append in practice.
func insertFlow(list []*Flow, fl *Flow) []*Flow {
	i, ok := flowIndex(list, fl.ID)
	if ok {
		return list
	}
	return slices.Insert(list, i, fl)
}

// removeFlow drops fl from an ID-ordered list, if it is there.
func removeFlow(list []*Flow, fl *Flow) []*Flow {
	i, ok := flowIndex(list, fl.ID)
	if !ok {
		return list
	}
	return slices.Delete(list, i, i+1)
}

// advance applies elapsed progress to every active flow at the current rates.
func (fb *Fabric) advance() {
	now := fb.eng.Now()
	dt := now - fb.lastUpdate
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, fl := range fb.flows {
		fl.remaining -= fl.rate * dt
		if fl.remaining < 0 {
			fl.remaining = 0
		}
	}
}

// Batch runs fn and recomputes rates once when it returns, instead of after
// every flow start, cancel or capacity change inside it. Batches nest; the
// outermost one recomputes. fn must not read rates, which are stale inside
// it, nor move the clock.
//
// Deferring changes nothing but the work. The clock cannot move inside fn,
// so the deferred pass sees the same flows and remaining bytes the last
// immediate pass would have seen, and computes the same rates. Every change
// claims its completion timer's tie-stamp when it happens, as an immediate
// pass would; the deferred timer takes the last one, so it fires in the same
// order relative to other events at its instant.
func (fb *Fabric) Batch(fn func()) {
	fb.batch++
	fn()
	fb.batch--
	if fb.batch == 0 && fb.dirty {
		fb.dirty = false
		fb.reallocate()
	}
}

// changed records a change to the flow set or to a capacity: it claims the
// tie-stamp of the completion timer the change reschedules, then recomputes
// rates now, or at the end of the enclosing Batch.
func (fb *Fabric) changed() {
	if len(fb.flows) > 0 {
		fb.stamp = fb.eng.Reserve()
	}
	if fb.batch > 0 {
		fb.dirty = true
		return
	}
	fb.reallocate()
}

// reallocate recomputes max-min fair rates via progressive filling and
// reschedules the completion timer.
//
// Every resource sees its subtractions in a fixed order (bottleneck by
// bottleneck, and within one bottleneck in flow-ID order), and ties between
// equal shares go to the resource touched first in flow-ID order, so the
// rates are reproducible bit for bit.
func (fb *Fabric) reallocate() {
	if fb.timer != nil {
		fb.eng.Cancel(fb.timer)
		fb.timer = nil
	}
	if len(fb.flows) == 0 {
		return
	}
	fb.Reallocations++

	// Progressive filling. Each touched resource starts the pass with its
	// full capacity as residual and counts its unfrozen flows.
	fb.epoch++
	touched := fb.touched[:0]
	for _, fl := range fb.flows {
		fl.rate = -1 // unfrozen marker
		for _, r := range fl.resources {
			if r.epoch != fb.epoch {
				r.epoch = fb.epoch
				r.residual = r.Capacity
				r.unfrozen = 0
				touched = append(touched, r)
			}
			r.unfrozen++
		}
	}
	fb.touched = touched
	for remaining := len(fb.flows); remaining > 0; {
		// Find the bottleneck: the resource with the smallest fair share
		// (first touched wins ties). Resources with no unfrozen flows left
		// drop out of the scan for the rest of the pass.
		var bottleneck *Resource
		best := math.Inf(1)
		live := touched[:0]
		for _, r := range touched {
			if r.unfrozen == 0 {
				continue
			}
			live = append(live, r)
			share := r.residual / float64(r.unfrozen)
			if share < best {
				best = share
				bottleneck = r
			}
		}
		touched = live
		if bottleneck == nil {
			// No contended resources left; should not happen since every
			// flow crosses at least one resource.
			panic("netsim: progressive filling found no bottleneck")
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share,
		// in flow-ID order.
		for _, fl := range bottleneck.flows {
			if fl.rate >= 0 {
				continue
			}
			fl.rate = best
			remaining--
			for _, r := range fl.resources {
				r.residual -= best
				if r.residual < 0 {
					r.residual = 0
				}
				r.unfrozen--
			}
		}
	}
	// Drop the scratch pointers so per-flow caps do not keep finished flows
	// reachable.
	clear(fb.touched)

	// Schedule the earliest completion.
	soonest := math.Inf(1)
	for _, fl := range fb.flows {
		if fl.rate <= 0 {
			continue
		}
		t := fl.remaining / fl.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		panic("netsim: active flows but no positive rates")
	}
	fb.timer = fb.eng.AtStamp(fb.eng.Now()+soonest, fb.stamp, fb.onTimer)
}

// onCompletion fires when at least one flow should have drained.
func (fb *Fabric) onCompletion() {
	fb.timer = nil
	fb.advance()
	const eps = 1e-9
	var finished []*Flow
	kept := fb.flows[:0]
	for _, fl := range fb.flows {
		if fl.remaining <= fl.Bytes*eps+eps {
			finished = append(finished, fl)
		} else {
			kept = append(kept, fl)
		}
	}
	clear(fb.flows[len(kept):])
	fb.flows = kept
	for _, fl := range finished {
		fl.remaining = 0
		fl.finished = true
		fb.detach(fl)
		fb.TotalBytesMoved += fl.Bytes
		fb.CompletedFlows++
	}
	fb.changed()
	// Run callbacks after rates are consistent so callbacks that start new
	// flows observe a clean state.
	for _, fl := range finished {
		if fl.done != nil {
			fl.done()
		}
	}
}

// Flows returns the active flows ordered by ID (audits and tests).
func (fb *Fabric) Flows() []*Flow { return slices.Clone(fb.flows) }

// Partitioned reports whether a network partition is in effect.
func (fb *Fabric) Partitioned() bool { return fb.partition != nil }

// crossesPartition reports whether a flow between the endpoints would span
// the active partition boundary.
func (fb *Fabric) crossesPartition(src, dst int) bool {
	return fb.partition != nil && src >= 0 && dst >= 0 && fb.partition[src] != fb.partition[dst]
}

// SetPartition splits the fabric into groups (groups[node] is the node's
// group id): flows crossing a group boundary — in-flight and new — are
// throttled through a single shared choke of chokeBps bytes/second, the
// fluid-model stand-in for a partition where only a trickle of traffic
// leaks across. Replaces any partition already in effect.
func (fb *Fabric) SetPartition(groups []int, chokeBps float64) {
	if len(groups) != len(fb.up) {
		panic(fmt.Sprintf("netsim: SetPartition with %d groups for %d nodes", len(groups), len(fb.up)))
	}
	if chokeBps <= 0 {
		panic("netsim: SetPartition with non-positive choke capacity")
	}
	if fb.partition != nil {
		fb.ClearPartition()
	}
	fb.advance()
	fb.partition = append([]int(nil), groups...)
	fb.choke = &Resource{Kind: FlowCap, Node: -1, Capacity: chokeBps}
	for _, fl := range fb.flows {
		if fb.crossesPartition(fl.src, fl.dst) {
			fl.resources = append(fl.resources, fb.choke)
			fb.choke.flows = append(fb.choke.flows, fl)
		}
	}
	fb.changed()
}

// ClearPartition heals the partition: choked flows regain their normal
// max-min fair rates.
func (fb *Fabric) ClearPartition() {
	if fb.partition == nil {
		return
	}
	fb.advance()
	for _, fl := range fb.choke.flows {
		if i := slices.Index(fl.resources, fb.choke); i >= 0 {
			fl.resources = slices.Delete(fl.resources, i, i+1)
		}
	}
	// Flows still in setup latency keep the choke and join it when they
	// activate, so its list must not keep the flows just released.
	fb.choke.flows = nil
	fb.partition = nil
	fb.choke = nil
	fb.changed()
}

// scale sets a resource's capacity to factor × its nominal capacity,
// remembering the nominal value across repeated scalings.
func (fb *Fabric) scale(r *Resource, factor float64) {
	if factor <= 0 || math.IsNaN(factor) {
		panic(fmt.Sprintf("netsim: scale with invalid factor %v", factor))
	}
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

// ScaleLinks degrades (or restores, with factor 1) a node's uplink and
// downlink to factor × nominal capacity. In-flight flows re-converge to the
// new max-min fair rates immediately.
func (fb *Fabric) ScaleLinks(node int, factor float64) {
	fb.advance()
	fb.scale(fb.up[node], factor)
	fb.scale(fb.down[node], factor)
	fb.changed()
}

// ScaleDisk degrades (or restores, with factor 1) a node's disk bandwidth
// to factor × nominal capacity — a slow-disk straggler.
func (fb *Fabric) ScaleDisk(node int, factor float64) {
	fb.advance()
	fb.scale(fb.disk[node], factor)
	fb.changed()
}

// Utilization returns the fraction of a resource's capacity currently
// allocated; useful in tests and metrics. Rates are summed in flow-ID order,
// so the result is the same on every run.
func (fb *Fabric) Utilization(r *Resource) float64 {
	sum := 0.0
	for _, fl := range r.flows {
		sum += fl.rate
	}
	return sum / r.Capacity
}
