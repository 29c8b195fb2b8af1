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
// so freezing a bottleneck walks only that resource's flows. The fabric
// indexes the resources that carry flows, so a pass sets up from that index
// without walking the flows, and breaks ties between equal shares by a
// first-touch key instead of walk order. One scan freezes every resource
// tied at the smallest share, as consecutive levels, for as long as each
// freeze leaves the other shares above it. Batch defers the pass across a
// burst of changes at one instant.
//
// Passes are warm-started. Each pass keeps its bottleneck sequence (the
// levels), and between passes the fabric logs the resources a new flow
// joined or a rescale touched and the lowest level of any removed flow. The
// next pass replays the old levels that no logged change can reach, without
// scanning for them, and scans from the first level a change may move. The
// replay computes the same residuals in the same order as a cold pass, so
// the rates stay bit-identical (DESIGN.md §10).
//
// Flow completions are event-driven: after every rate change the fabric
// advances each flow's remaining bytes and reschedules a single timer for the
// earliest completion, which the freezes find as they fix the rates.
package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/event"
	"repro/internal/mutant"
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
	capacity float64 // bytes per second; changed only through Fabric.scale

	flows []*Flow // active flows crossing the resource, in ID order
	slot  int     // 1 + its position in Fabric.active; 0 while flows is empty

	// Progressive-filling state, meaningful while epoch equals the fabric's
	// current pass.
	epoch    uint64
	residual float64 // capacity not yet handed to frozen flows
	unfrozen int     // unfrozen flows crossing

	// logged is the pass for which the resource sits in the fabric's
	// change log: joined by a new flow or rescaled since the last pass.
	logged uint64
}

// Capacity returns the resource's current capacity in bytes per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Flow is an in-progress transfer across a set of resources.
type Flow struct {
	ID        int64
	Bytes     float64 // total size
	remaining float64
	rate      float64
	resources []*Resource // each listed once
	cap       Resource    // private rate cap; listed in resources when set
	done      func()
	finished  bool
	cancelled bool
	src, dst  int    // endpoint nodes
	level     int    // filling level the last pass froze it at; noLevel if none
	frozen    uint64 // the pass that froze it; rate is fixed once it equals the fabric's epoch
}

// noLevel is the level of a flow no pass has frozen yet.
const noLevel = math.MaxInt

// Src returns the flow's source node.
func (f *Flow) Src() int { return f.src }

// Dst returns the flow's destination node.
func (f *Flow) Dst() int { return f.dst }

// Remaining returns the bytes left to transfer as of the last rate update.
func (f *Flow) Remaining() float64 { return f.remaining }

// Done reports whether the flow completed (not cancelled).
func (f *Flow) Done() bool { return f.finished }

// Fabric owns all node resources and active flows.
type Fabric struct {
	eng    *event.Engine
	up     []*Resource
	down   []*Resource
	disk   []*Resource
	mem    []*Resource
	flows  []*Flow // active flows in ID order
	nextID int64

	lastUpdate float64
	timer      *event.Timer
	onTimer    func() // onCompletion, bound once so a pass allocates only its timer
	stamp      event.Stamp

	// active holds every resource whose flow list is non-empty, in no
	// particular order (Resource.slot is the back-index).
	active []*Resource

	// Scratch reused across passes: the pass counter that validates
	// Resource and Flow state, the positions in active of the resources a
	// pass still scans, the tie run of its last scan, the earliest
	// completion among the flows it froze, and the flows a completion event
	// finished. live and run hold positions, not pointers, so they keep no
	// finished flow's cap reachable and need no clearing.
	epoch    uint64
	live     []int32
	run      []tie
	soonest  float64
	finished []*Flow

	// The warm start. levels is the last pass's bottleneck sequence. The
	// change log since then: joined holds the resources a new flow joined
	// or a rescale touched (each once, marked by Resource.logged), and
	// minRemoved is the lowest level of a flow that left. SetPartition and
	// ClearPartition rewrite flows' resource lists, so they drop levels and
	// the next pass runs cold.
	levels     []level
	joined     []*Resource
	minRemoved int

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
	// ScanVisits counts the resources the bottleneck scans visited: the
	// filling work the warm start saves.
	ScanVisits int64
}

// tie is a member of a tie run: a resource's position in Fabric.active and
// its first-touch key.
type tie struct {
	key int64
	pos int32
}

// level is one step of a pass's progressive filling: the bottleneck whose
// unfrozen flows froze and the share they froze at.
type level struct {
	r     *Resource
	share float64
}

// Config describes per-node capacities in bytes per second.
type Config struct {
	UplinkBps   float64
	DownlinkBps float64
	DiskBps     float64
}

// DefaultMemoryBps is every node's in-memory block-cache read bandwidth,
// used by memory-tier reads (TierMemory): 10 GB/s, an order of magnitude
// above the testbed's SSD and well above any single link. Memory resources
// are inert until a tiered read references them, so disk-tier simulations
// never see it.
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
		eng:        eng,
		baseCap:    make(map[*Resource]float64),
		minRemoved: noLevel,
	}
	f.onTimer = f.onCompletion
	for i := 0; i < n; i++ {
		f.up = append(f.up, &Resource{Kind: Uplink, Node: i, capacity: cfg.UplinkBps})
		f.down = append(f.down, &Resource{Kind: Downlink, Node: i, capacity: cfg.DownlinkBps})
		f.disk = append(f.disk, &Resource{Kind: Disk, Node: i, capacity: cfg.DiskBps})
		f.mem = append(f.mem, &Resource{Kind: Memory, Node: i, capacity: DefaultMemoryBps})
	}
	return f
}

// SetDiskSpeed multiplies node n's nominal disk bandwidth by speed, for a
// node whose storage is faster or slower than the configured default. It
// configures the fabric before it runs and panics once a flow has started:
// capacity changes afterwards go through ScaleDisk, which the warm start
// logs.
func (fb *Fabric) SetDiskSpeed(n int, speed float64) {
	if fb.nextID > 0 {
		panic("netsim: SetDiskSpeed after a flow started")
	}
	if speed <= 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("netsim: SetDiskSpeed with invalid speed %v", speed))
	}
	fb.disk[n].capacity *= speed
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

// RemoteReadCapTier starts a read of a block stored on src delivered to
// dst: it consumes src's serving resource for the tier (its disk, or its
// memory bandwidth for a warm cache hit, leaving the disk free for other
// readers), the source uplink and the destination downlink.
//
// capBps adds a per-flow rate cap in bytes/second (0 = uncapped), modeling
// protocol overhead on single-stream remote block reads (HDFS remote reads
// do not reach line rate; the paper cites network reads as "as much as 20
// times slower than local data access", §III-C). The cap is realized as a
// private resource embedded in the flow, so max-min fairness still applies
// below it.
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

// start creates a flow over resources, followed by its private cap when
// capBps > 0 and by the partition choke when it crosses the partition, and
// admits it into the rate allocation at once. Flows therefore enter
// fb.flows and every resource's list in ID order, each resource once.
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
		src:       src,
		dst:       dst,
		level:     noLevel,
	}
	if capBps > 0 {
		fl.cap = Resource{Kind: FlowCap, Node: dst, capacity: capBps}
		resources = append(resources, &fl.cap)
	}
	if fb.crossesPartition(src, dst) {
		resources = append(resources, fb.choke)
	}
	fl.resources = resources
	if bytes == 0 {
		// Zero-byte flows complete in an event of their own without
		// touching the rate allocation.
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
	fb.advance()
	fb.flows = append(fb.flows, fl)
	for _, r := range resources {
		fb.join(r, fl)
		fb.logChange(r)
	}
	fb.changed()
	return fl
}

// join appends fl to r's flow list, entering r into the active index when
// the list was empty.
func (fb *Fabric) join(r *Resource, fl *Flow) {
	if len(r.flows) == 0 {
		fb.active = append(fb.active, r)
		r.slot = len(fb.active)
	}
	r.flows = append(r.flows, fl)
}

// retire takes r out of the active index, if it is there.
func (fb *Fabric) retire(r *Resource) {
	if r.slot == 0 {
		return
	}
	last := len(fb.active) - 1
	moved := fb.active[last]
	fb.active[r.slot-1] = moved
	moved.slot = r.slot
	fb.active[last] = nil
	fb.active = fb.active[:last]
	r.slot = 0
}

// logChange records that r gained a flow or changed capacity since the last
// pass, once per pass.
func (fb *Fabric) logChange(r *Resource) {
	if r.logged != fb.epoch+1 {
		r.logged = fb.epoch + 1
		fb.joined = append(fb.joined, r)
	}
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

// detach takes fl off its resources' flow lists, retires the resources it
// leaves empty, and logs the level it left.
func (fb *Fabric) detach(fl *Flow) {
	fb.minRemoved = min(fb.minRemoved, fl.level)
	for _, r := range fl.resources {
		r.flows = removeFlow(r.flows, fl)
		if len(r.flows) == 0 {
			fb.retire(r)
		}
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
// equal shares go to the resource touched first in flow-ID order (see
// firstTouch), so the rates are reproducible bit for bit.
//
// The pass first replays the last pass's levels while no logged change can
// reach them. Level i is replayed only below the lowest level a removed flow
// froze at, only if its bottleneck was neither joined nor rescaled, and only
// while every joined or rescaled resource's current share is strictly above
// the level's share. Inside that prefix the bottleneck keeps its flows, so
// its share and its first-touch key are unchanged; every other unlogged
// resource only lost flows, so its share can only rise and its key only
// grow. The cold scan would therefore pick the same bottleneck at the same
// share, ties included.
//
// Each scan then collects every resource at the minimum share and freezes
// them in first-touch order as consecutive levels, a tie run. A member
// whose share moved since the scan is skipped, and the run ends at the
// first freeze that is not calm (see calm), when the next scan resumes.
// While every freeze is calm, the resources at the run's share are exactly
// its members no freeze touched, so the next cold scan would pick the next
// of them.
func (fb *Fabric) reallocate() {
	if fb.timer != nil {
		fb.eng.Cancel(fb.timer)
		fb.timer = nil
	}
	if len(fb.flows) == 0 {
		fb.keepLevels(0)
		fb.resetLog()
		return
	}
	fb.Reallocations++

	// Progressive filling. Every resource with flows starts the pass with
	// its full capacity as residual and all its flows unfrozen: its list
	// holds exactly the active flows crossing it.
	fb.epoch++
	fb.soonest = math.Inf(1)
	live := fb.live[:0]
	for i, r := range fb.active {
		r.epoch = fb.epoch
		r.residual = r.capacity
		r.unfrozen = len(r.flows)
		live = append(live, int32(i))
	}
	fb.live = live
	remaining := len(fb.flows)

	// Replay the levels no change can reach.
	n := 0
	for limit := min(len(fb.levels), fb.minRemoved); n < limit && remaining > 0; n++ {
		lv := fb.levels[n]
		if lv.r.logged == fb.epoch || !fb.logAbove(lv.share) {
			break
		}
		if lv.r.epoch != fb.epoch || lv.r.residual/float64(lv.r.unfrozen) != lv.share {
			panic("netsim: replayed level disagrees with the last pass")
		}
		remaining -= fb.freeze(lv.r, lv.share, n)
	}
	fb.keepLevels(n)
	fb.resetLog()

	for remaining > 0 {
		// Find the bottlenecks: the resources with the smallest fair share.
		// Resources with no unfrozen flows left drop out of the scan for
		// the rest of the pass.
		best := math.Inf(1)
		run := fb.run[:0]
		fb.ScanVisits += int64(len(live))
		kept := live[:0]
		for _, pos := range live {
			r := fb.active[pos]
			if r.unfrozen == 0 {
				continue
			}
			kept = append(kept, pos)
			share := r.residual / float64(r.unfrozen)
			if share < best {
				best = share
				run = append(run[:0], tie{pos: pos})
			} else if share == best {
				run = append(run, tie{pos: pos})
			}
		}
		live = kept
		if len(run) == 0 {
			// No contended resources left; should not happen since every
			// flow crosses at least one resource.
			panic("netsim: progressive filling found no bottleneck")
		}
		if len(run) > 1 {
			for i := range run {
				run[i].key = firstTouch(fb.active[run[i].pos])
			}
			slices.SortFunc(run, func(a, b tie) int { return cmp.Compare(a.key, b.key) })
		}
		for i, t := range run {
			r := fb.active[t.pos]
			if r.unfrozen == 0 || r.residual/float64(r.unfrozen) != best {
				continue // an earlier freeze of the run moved its share up
			}
			fb.levels = append(fb.levels, level{r, best})
			frozen := fb.freeze(r, best, n)
			if frozen == 0 {
				// Its unfrozen count says otherwise: its flow list is stale.
				panic("netsim: bottleneck froze no flow")
			}
			remaining -= frozen
			n++
			if i == len(run)-1 || remaining == 0 || !fb.calm(r, best, n-1) {
				break
			}
		}
		fb.run = run
	}

	if math.IsInf(fb.soonest, 1) {
		panic("netsim: active flows but no positive rates")
	}
	fb.timer = fb.eng.AtStamp(fb.eng.Now()+fb.soonest, fb.stamp, fb.onTimer)
}

// firstTouch returns r's place in the order a walk over the active flows
// in ID order, each flow's resources in list order, first reaches the
// resources: the lowest flow ID crossing r, then r's place in that flow's
// list. A flow lists at most five resources (a serving resource, two links,
// its cap and the choke), so three bits hold the place.
func firstTouch(r *Resource) int64 {
	fl := r.flows[0]
	return fl.ID<<3 | int64(slices.Index(fl.resources, r))
}

// freeze fixes every unfrozen flow crossing the bottleneck r at share, in
// flow-ID order, stamps it with level n and the pass, and returns how many
// it froze. It lowers fb.soonest to the earliest completion among them:
// dividing by one positive share keeps the order of the remaining bytes,
// so the least of them over share is the least of their completion times.
func (fb *Fabric) freeze(r *Resource, share float64, n int) int {
	frozen := 0
	least := math.Inf(1)
	for _, fl := range r.flows {
		if fl.frozen == fb.epoch {
			continue
		}
		fl.frozen = fb.epoch
		fl.rate = share
		fl.level = n
		frozen++
		if fl.remaining < least {
			least = fl.remaining
		}
		for _, q := range fl.resources {
			q.residual -= share
			if q.residual < 0 {
				q.residual = 0
			}
			q.unfrozen--
		}
	}
	if share > 0 && least/share < fb.soonest {
		fb.soonest = least / share
	}
	return frozen
}

// calm reports whether freezing level n, the bottleneck r at share, left
// every other resource its flows cross either without unfrozen flows or at
// a share strictly above share. Taking flows at rate share off a resource
// whose share was above it keeps the share above it in exact arithmetic, so
// only a resource tied at share, or one that rounding pushed down, breaks
// the calm.
func (fb *Fabric) calm(r *Resource, share float64, n int) bool {
	if mutant.Active == mutant.NetsimTieCalm { // seeded bug: every tie run runs to its end
		return true
	}
	for _, fl := range r.flows {
		if fl.level != n || fl.frozen != fb.epoch {
			continue // not frozen at this level
		}
		for _, q := range fl.resources {
			if q.unfrozen > 0 && q.residual/float64(q.unfrozen) <= share {
				return false
			}
		}
	}
	return true
}

// logAbove reports whether every logged resource with unfrozen flows in
// this pass has a current share strictly above share.
func (fb *Fabric) logAbove(share float64) bool {
	if mutant.Active == mutant.NetsimWarmJoined { // seeded bug: ignore the joined resources
		return true
	}
	for _, r := range fb.joined {
		if r.epoch == fb.epoch && r.unfrozen > 0 && r.residual/float64(r.unfrozen) <= share {
			return false
		}
	}
	return true
}

// keepLevels truncates the recorded levels to the first n, dropping the
// pointers of the rest so per-flow caps do not keep finished flows
// reachable.
func (fb *Fabric) keepLevels(n int) {
	clear(fb.levels[n:])
	fb.levels = fb.levels[:n]
}

// resetLog empties the change log once a pass has consumed it.
func (fb *Fabric) resetLog() {
	clear(fb.joined)
	fb.joined = fb.joined[:0]
	fb.minRemoved = noLevel
}

// onCompletion fires when at least one flow should have drained. One walk
// advances every flow to now, as advance would, and sorts the finished
// flows from the kept ones.
func (fb *Fabric) onCompletion() {
	fb.timer = nil
	const eps = 1e-9
	now := fb.eng.Now()
	dt := now - fb.lastUpdate
	fb.lastUpdate = now
	// A remainder below rate × 4 ulps of now takes under 4 ulps to drain;
	// only such a flow can drain too fast to move the clock.
	tick := 4 * (math.Nextafter(now, math.Inf(1)) - now)
	finished := fb.finished[:0]
	kept := 0
	for i, fl := range fb.flows {
		if dt > 0 {
			fl.remaining -= fl.rate * dt
			if fl.remaining < 0 {
				fl.remaining = 0
			}
		}
		// Done: the remainder is rounding noise, or it drains too fast to
		// move the clock, so its timer would fire at now forever.
		if fl.remaining <= fl.Bytes*eps+eps ||
			fl.remaining <= fl.rate*tick && now+fl.remaining/fl.rate == now {
			finished = append(finished, fl)
			continue
		}
		if kept != i { // only a finished flow opens a gap
			fb.flows[kept] = fl
		}
		kept++
	}
	clear(fb.flows[kept:])
	fb.flows = fb.flows[:kept]
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
	clear(finished)
	fb.finished = finished[:0]
}

// Flows returns the active flows ordered by ID (audits and tests).
func (fb *Fabric) Flows() []*Flow { return slices.Clone(fb.flows) }

// Partitioned reports whether a network partition is in effect.
func (fb *Fabric) Partitioned() bool { return fb.partition != nil }

// crossesPartition reports whether a flow between the endpoints would span
// the active partition boundary.
func (fb *Fabric) crossesPartition(src, dst int) bool {
	return fb.partition != nil && fb.partition[src] != fb.partition[dst]
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
	fb.choke = &Resource{Kind: FlowCap, Node: -1, capacity: chokeBps}
	for _, fl := range fb.flows {
		if fb.crossesPartition(fl.src, fl.dst) {
			fl.resources = append(fl.resources, fb.choke)
			fb.join(fb.choke, fl)
		}
	}
	fb.keepLevels(0)
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
	fb.retire(fb.choke)
	fb.partition = nil
	fb.choke = nil
	fb.keepLevels(0)
	fb.changed()
}

// scale sets a resource's capacity to factor × its nominal capacity,
// remembering the nominal value across repeated scalings, and logs the
// change for the warm start. Every capacity change after construction goes
// through here.
func (fb *Fabric) scale(r *Resource, factor float64) {
	if factor <= 0 || math.IsNaN(factor) {
		panic(fmt.Sprintf("netsim: scale with invalid factor %v", factor))
	}
	base, ok := fb.baseCap[r]
	if !ok {
		base = r.capacity
		fb.baseCap[r] = base
	}
	r.capacity = base * factor
	fb.logChange(r)
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
	return sum / r.capacity
}
