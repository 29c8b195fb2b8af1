package netsim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/event"
	"repro/internal/xrand"
)

// The differential battery: one operation sequence runs on the production
// Fabric and on the frozen refFabric side by side, each on its own engine.
// After every operation each active flow's rate and remaining bytes, and the
// completion timer's time, must match bit for bit; at the end every flow's
// completion time, the completed-flow and byte totals and the number of
// events run must match too. Operations inside a Batch run unbatched on the
// reference, so the comparison after the batch also proves that deferring
// the recompute changes nothing. After every operation the production
// fabric's flow lists must also hold the structure its pass relies on: each
// active flow lists each resource once, a resource's list holds exactly
// the active flows listing it, in strictly increasing ID order, and the
// active-resource index holds exactly the resources with a non-empty list.

// opBytes feeds an operation sequence from a byte string; past its end it
// reads zeros.
type opBytes struct {
	data []byte
	i    int
}

func (b *opBytes) next() int {
	if b.i >= len(b.data) {
		return 0
	}
	v := b.data[b.i]
	b.i++
	return int(v)
}

func (b *opBytes) more() bool { return b.i < len(b.data) }

// Operation kinds, chosen by one byte each.
const (
	opLocal = iota
	opRemote
	opRemoteCap
	opTransfer
	opZero
	opCancel
	opScaleLinks
	opScaleDisk
	opSetPartition
	opClearPartition
	opBatch
	numOps
)

// failer is the part of testing.TB the differential reports through.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// fabricPair holds the two fabrics under comparison and every flow started
// on them, in start order.
type fabricPair struct {
	t          failer
	nodes      int
	engP, engR *event.Engine
	fb         *Fabric
	rf         *refFabric
	prod       []*Flow
	ref        []*refFlow
	doneP      map[int]float64 // completion time by start index
	doneR      map[int]float64
	kinds      [numOps]int // operations applied, by kind
}

// newFabricPair builds a production fabric and a reference fabric of the
// same shape, each on its own engine.
func newFabricPair(t failer, nodes int, cfg Config) *fabricPair {
	p := &fabricPair{
		t:     t,
		nodes: nodes,
		engP:  event.NewEngine(),
		engR:  event.NewEngine(),
		doneP: map[int]float64{},
		doneR: map[int]float64{},
	}
	p.fb = NewFabric(p.engP, nodes, cfg)
	p.rf = newRefFabric(p.engR, nodes, cfg)
	return p
}

// runFabricEquivalence decodes a fabric configuration and up to 80
// operations from data and checks the two fabrics agree throughout.
func runFabricEquivalence(t failer, data []byte) *fabricPair {
	t.Helper()
	b := &opBytes{data: data}
	nodes := 2 + b.next()%4
	caps := [4]float64{10, 20, 40, 100}
	cfg := Config{
		UplinkBps:   caps[b.next()%4],
		DownlinkBps: caps[b.next()%4],
		DiskBps:     caps[b.next()%4],
	}
	p := newFabricPair(t, nodes, cfg)
	for ops := 0; b.more() && ops < 80; ops++ {
		p.runUntil(p.engP.Now() + float64(b.next()%4)*0.25)
		p.step(b, 0)
		p.compare(ops)
	}
	p.finish()
	return p
}

// runUntil moves both engines to simulated time now.
func (p *fabricPair) runUntil(now float64) {
	p.engP.RunUntil(now)
	p.engR.RunUntil(now)
}

// finish drains both engines and checks the final state, the completion
// time of every flow, the totals and the number of events run.
func (p *fabricPair) finish() {
	t := p.t
	t.Helper()
	p.engP.Run()
	p.engR.Run()
	p.compare(-1)
	if len(p.doneP) != len(p.doneR) {
		t.Fatalf("%d flows completed, reference %d", len(p.doneP), len(p.doneR))
	}
	for i, want := range p.doneR {
		if got, ok := p.doneP[i]; !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("flow %d completed at %v (ok=%v), reference %v", i, got, ok, want)
		}
	}
	if p.fb.CompletedFlows != p.rf.CompletedFlows ||
		math.Float64bits(p.fb.TotalBytesMoved) != math.Float64bits(p.rf.TotalBytesMoved) {
		t.Fatalf("totals %d flows / %v B, reference %d / %v",
			p.fb.CompletedFlows, p.fb.TotalBytesMoved, p.rf.CompletedFlows, p.rf.TotalBytesMoved)
	}
	if p.engP.Executed() != p.engR.Executed() {
		t.Fatalf("%d events run, reference %d", p.engP.Executed(), p.engR.Executed())
	}
}

// callbacks returns done callbacks that record the completion time of the
// flow about to start on each fabric.
func (p *fabricPair) callbacks() (func(), func()) {
	i := len(p.prod)
	return func() { p.doneP[i] = p.engP.Now() }, func() { p.doneR[i] = p.engR.Now() }
}

func (p *fabricPair) started(fp *Flow, fr *refFlow) {
	p.prod = append(p.prod, fp)
	p.ref = append(p.ref, fr)
}

// step applies one operation to both fabrics. A batch applies up to four
// operations inside Fabric.Batch, nesting at most twice.
func (p *fabricPair) step(b *opBytes, depth int) {
	node := func() int { return b.next() % p.nodes }
	size := func() float64 { return float64(1 + 4*b.next()) }
	tier := func() Tier { return [2]Tier{TierDisk, TierMemory}[b.next()%2] }
	factor := func() float64 { return [4]float64{0.25, 0.5, 1, 2}[b.next()%4] }
	kind := b.next() % numOps
	p.kinds[kind]++
	switch kind {
	case opLocal:
		n, sz, tr := node(), size(), tier()
		dp, dr := p.callbacks()
		p.started(p.fb.LocalReadTier(n, sz, tr, dp), p.rf.LocalReadTier(n, sz, tr, dr))
	case opRemote, opRemoteCap:
		src, dst, sz, tr := node(), node(), size(), tier()
		capBps := 0.0
		if kind == opRemoteCap {
			capBps = float64(5 + b.next()%30)
		}
		dp, dr := p.callbacks()
		p.started(p.fb.RemoteReadCapTier(src, dst, sz, capBps, tr, dp),
			p.rf.RemoteReadCapTier(src, dst, sz, capBps, tr, dr))
	case opTransfer:
		p.transfer(node(), node(), size())
	case opZero:
		p.transfer(node(), node(), 0)
	case opCancel:
		if len(p.prod) == 0 {
			return
		}
		i := b.next() % len(p.prod)
		p.fb.Cancel(p.prod[i])
		p.rf.Cancel(p.ref[i])
	case opScaleLinks:
		p.scaleLinks(node(), factor())
	case opScaleDisk:
		n, f := node(), factor()
		p.fb.ScaleDisk(n, f)
		p.rf.ScaleDisk(n, f)
	case opSetPartition:
		groups := make([]int, p.nodes)
		for i := range groups {
			groups[i] = b.next() % 2
		}
		choke := [2]float64{5, 15}[b.next()%2]
		p.fb.SetPartition(groups, choke)
		p.rf.SetPartition(groups, choke)
	case opClearPartition:
		p.fb.ClearPartition()
		p.rf.ClearPartition()
	case opBatch:
		if depth >= 2 {
			return
		}
		k := 1 + b.next()%4
		p.fb.Batch(func() {
			for j := 0; j < k; j++ {
				p.step(b, depth+1)
			}
		})
	}
}

// transfer starts a network transfer on both fabrics.
func (p *fabricPair) transfer(src, dst int, size float64) {
	dp, dr := p.callbacks()
	p.started(p.fb.Transfer(src, dst, size, dp), p.rf.Transfer(src, dst, size, dr))
}

// scaleLinks rescales a node's links on both fabrics.
func (p *fabricPair) scaleLinks(n int, factor float64) {
	p.fb.ScaleLinks(n, factor)
	p.rf.ScaleLinks(n, factor)
}

// compare checks the active flows and the completion timer after operation
// op (-1: after the final drain).
func (p *fabricPair) compare(op int) {
	t := p.t
	t.Helper()
	want := p.rf.sortedFlows()
	got := p.fb.flows
	if len(got) != len(want) {
		t.Fatalf("op %d: %d active flows, reference %d", op, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID ||
			math.Float64bits(g.rate) != math.Float64bits(w.rate) ||
			math.Float64bits(g.remaining) != math.Float64bits(w.remaining) {
			t.Fatalf("op %d: flow %d rate %v remaining %v, reference flow %d rate %v remaining %v",
				op, g.ID, g.rate, g.remaining, w.ID, w.rate, w.remaining)
		}
	}
	if (p.fb.timer == nil) != (p.rf.timer == nil) {
		t.Fatalf("op %d: completion timer armed=%v, reference %v", op, p.fb.timer != nil, p.rf.timer != nil)
	}
	if p.fb.timer != nil && math.Float64bits(p.fb.timer.Time()) != math.Float64bits(p.rf.timer.Time()) {
		t.Fatalf("op %d: completion at %v, reference %v", op, p.fb.timer.Time(), p.rf.timer.Time())
	}
	p.checkLists(op)
}

// checkLists checks the production fabric's flow lists after operation op:
// fb.flows is strictly ID-ordered, each active flow lists each resource
// once, every resource's list is exactly the active flows listing it, in
// fb.flows order, and fb.active holds each resource with a non-empty list
// once, at the position its back-index names, and no other resource.
func (p *fabricPair) checkLists(op int) {
	t := p.t
	t.Helper()
	fb := p.fb
	want := map[*Resource][]*Flow{}
	for i, fl := range fb.flows {
		if i > 0 && fb.flows[i-1].ID >= fl.ID {
			t.Fatalf("op %d: active flows out of ID order: %d before %d", op, fb.flows[i-1].ID, fl.ID)
		}
		for j, r := range fl.resources {
			for _, prev := range fl.resources[:j] {
				if prev == r {
					t.Fatalf("op %d: flow %d lists its %v resource of node %d twice", op, fl.ID, r.Kind, r.Node)
				}
			}
			want[r] = append(want[r], fl)
		}
	}
	var all []*Resource
	for n := range p.nodes {
		all = append(all, fb.up[n], fb.down[n], fb.disk[n], fb.mem[n])
	}
	if fb.choke != nil {
		all = append(all, fb.choke)
	}
	for r := range want {
		if r.Kind == FlowCap && r != fb.choke {
			all = append(all, r)
		}
	}
	known := map[*Resource]bool{}
	for _, r := range all {
		if !slices.Equal(r.flows, want[r]) {
			t.Fatalf("op %d: %v resource of node %d holds flows %v, want %v",
				op, r.Kind, r.Node, flowIDs(r.flows), flowIDs(want[r]))
		}
		if indexed := r.slot > 0 && r.slot <= len(fb.active) && fb.active[r.slot-1] == r; indexed != (len(r.flows) > 0) {
			t.Fatalf("op %d: %v resource of node %d with %d flows has active-index slot %d (indexed %v)",
				op, r.Kind, r.Node, len(r.flows), r.slot, indexed)
		}
		known[r] = true
	}
	for i, r := range fb.active {
		if r.slot != i+1 {
			t.Fatalf("op %d: active index holds the %v resource of node %d at %d, its slot says %d",
				op, r.Kind, r.Node, i+1, r.slot)
		}
		if !known[r] || len(r.flows) == 0 {
			t.Fatalf("op %d: active index holds the %v resource of node %d, which no active flow crosses",
				op, r.Kind, r.Node)
		}
	}
}

func flowIDs(list []*Flow) []int64 {
	ids := make([]int64, len(list))
	for i, fl := range list {
		ids[i] = fl.ID
	}
	return ids
}

// referenceCases are the fabric shapes of the differential battery.
var referenceCases = []struct {
	name   string
	header []byte // nodes, uplink, downlink, disk
}{
	{"two-nodes", []byte{0, 0, 1, 2}},
	{"five-nodes-mixed", []byte{3, 1, 3, 2}},
	{"equal-capacities", []byte{1, 1, 1, 1}},
	{"four-nodes-slow-uplink", []byte{2, 0, 2, 1}},
	{"five-nodes-equal-capacities", []byte{3, 2, 2, 2}},
}

// referenceData is one seed's operation bytes for a battery shape.
func referenceData(header []byte, seed uint64) []byte {
	rng := xrand.New(seed)
	data := append([]byte(nil), header...)
	for i := 0; i < 300; i++ {
		data = append(data, byte(rng.Intn(256)))
	}
	return data
}

// TestFabricMatchesReference runs random operation sequences against the
// frozen solver on a table of fabric shapes. Equal capacities make shares
// tie often, which exercises the first-touch tie-break.
func TestFabricMatchesReference(t *testing.T) {
	var kinds [numOps]int
	for _, c := range referenceCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 40; seed++ {
				p := runFabricEquivalence(t, referenceData(c.header, seed))
				for k, n := range p.kinds {
					kinds[k] += n
				}
			}
		})
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("operation kind %d never ran", k)
		}
	}
}

// FuzzFabricEquivalence drives the differential from fuzzer-chosen bytes.
// The committed corpus is under testdata/fuzz/FuzzFabricEquivalence.
func FuzzFabricEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 1, 0, 0, 5, 7, 0, 3, 1, 1, 9, 2, 6, 0})
	f.Add([]byte{3, 1, 1, 1, 1, 0, 10, 3, 3, 0, 1, 2, 0, 4, 0, 2, 0, 2, 1, 5, 0, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		runFabricEquivalence(t, data)
	})
}

// TestUtilizationDeterministic: Utilization sums a resource's flow rates in
// flow-ID order, so the float result is bit-identical run to run (summing in
// map order, as it once did, made the last bits vary).
func TestUtilizationDeterministic(t *testing.T) {
	var first uint64
	for trial := 0; trial < 20; trial++ {
		eng := event.NewEngine()
		fb := NewFabric(eng, 40, cfg(100, 1e6, 1e6))
		// Distinct uplink capacities give every flow into node 0 its own
		// inexact rate, so the sum depends on the order it is taken in.
		for src := 1; src < 40; src++ {
			fb.up[src].capacity = 100 / float64(src+2)
			fb.Transfer(src, 0, 1e6, nil)
		}
		u := math.Float64bits(fb.Utilization(fb.down[0]))
		if trial == 0 {
			first = u
		} else if u != first {
			t.Fatalf("trial %d: utilization bits %x, first trial %x", trial, u, first)
		}
	}
}

// TestBatchOnePass: k flow starts cost k passes unbatched and one pass in a
// Batch, however deeply nested.
func TestBatchOnePass(t *testing.T) {
	const k = 6
	eng := event.NewEngine()
	fb := NewFabric(eng, k+1, LinodeConfig())
	for src := 1; src <= k; src++ {
		fb.Transfer(src, 0, 1e6, nil)
	}
	if fb.Reallocations != k {
		t.Fatalf("unbatched: %d passes, want %d", fb.Reallocations, k)
	}
	before := fb.Reallocations
	fb.Batch(func() {
		for src := 1; src <= k; src++ {
			fb.Batch(func() { fb.Transfer(src, 0, 1e6, nil) })
			if fb.Reallocations != before {
				t.Fatal("a nested batch recomputed before the outermost ended")
			}
		}
	})
	if got := fb.Reallocations - before; got != 1 {
		t.Fatalf("batched: %d passes, want 1", got)
	}
	fb.Batch(func() {})
	if got := fb.Reallocations - before; got != 1 {
		t.Fatalf("an empty batch ran a pass (%d passes)", got)
	}
}

// TestPassAllocs pins the steady-state cost of a pass: with the scratch
// slices warm, it allocates only the completion timer. It measures a cold
// pass (the levels dropped, so every level is scanned) on random remote
// reads and transfers, then on a ring of equal transfers whose resources
// all tie, which one scan's tie run fills, and then cold and warm passes
// with a partition choking the crossing flows.
func TestPassAllocs(t *testing.T) {
	requireOneAlloc := func(name string, pass func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(200, pass); allocs > 1 {
			t.Fatalf("%s: a pass allocates %v objects, want at most 1 (the completion timer)", name, allocs)
		}
	}
	coldPass := func(fb *Fabric) func() {
		return func() {
			fb.keepLevels(0)
			fb.changed()
		}
	}

	eng := event.NewEngine()
	fb := NewFabric(eng, 20, LinodeConfig())
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		src, dst := rng.Intn(20), rng.Intn(20)
		fb.RemoteReadCapTier(src, dst, 128e6, 50e6, TierDisk, nil)
		fb.Transfer(dst, src, 64e6, nil)
	}
	requireOneAlloc("cold", coldPass(fb))

	ring := NewFabric(event.NewEngine(), 8, Config{UplinkBps: 100, DownlinkBps: 100, DiskBps: 100})
	for i := 0; i < 8; i++ {
		ring.Transfer(i, (i+1)%8, 1e3, nil)
	}
	before := ring.ScanVisits
	coldPass(ring)()
	if got := ring.ScanVisits - before; got != int64(len(ring.active)) {
		t.Fatalf("tie ring: a cold pass visited %d resources, want %d (one scan)", got, len(ring.active))
	}
	requireOneAlloc("tie run", coldPass(ring))

	fb.SetPartition(append(make([]int, 10), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 1e8)
	requireOneAlloc("cold, partitioned", coldPass(fb))
	requireOneAlloc("warm, partitioned", fb.changed)
}

// TestWarmStartTies drives a symmetric fabric in which every filling level
// ties: equal capacities everywhere and flows laid out in rings, so each
// bottleneck shares its fair share with many later resources. Starts,
// completions and a rescale land between passes. The warm fabric must match
// the reference bit for bit, and so must a cold one that drops its levels
// before every pass; the warm one must scan fewer resources.
func TestWarmStartTies(t *testing.T) {
	const nodes = 8
	cfg := Config{UplinkBps: 100, DownlinkBps: 100, DiskBps: 100}
	run := func(cold bool) *Fabric {
		p := newFabricPair(t, nodes, cfg)
		fb := p.fb
		if cold {
			fb.onTimer = func() {
				fb.levels = fb.levels[:0]
				fb.onCompletion()
			}
		}
		op := 0
		do := func(fn func()) {
			if cold {
				fb.levels = fb.levels[:0]
			}
			fn()
			p.compare(op)
			op++
		}
		// Two rings of transfers: every uplink and downlink carries two
		// flows, so every share is 50. Sizes differ per ring, so the rings
		// complete at different times.
		for i := 0; i < nodes; i++ {
			do(func() { p.transfer(i, (i+1)%nodes, 100) })
			do(func() { p.transfer(i, (i+3)%nodes, 300) })
		}
		p.runUntil(1)
		// A third ring joins: every share ties again, now at 100/3.
		for i := 0; i < nodes; i++ {
			do(func() { p.transfer(i, (i+5)%nodes, 200) })
		}
		p.runUntil(2)
		do(func() { p.scaleLinks(3, 0.5) })
		p.runUntil(4)
		for i := 0; i < nodes; i += 2 {
			do(func() { p.transfer(i, (i+1)%nodes, 50) })
		}
		p.runUntil(5)
		do(func() { p.scaleLinks(3, 1) })
		p.finish()
		return fb
	}
	warm, cold := run(false), run(true)
	if warm.Reallocations != cold.Reallocations {
		t.Fatalf("warm fabric ran %d passes, cold %d", warm.Reallocations, cold.Reallocations)
	}
	if warm.ScanVisits >= cold.ScanVisits {
		t.Fatalf("warm fabric's scans visited %d resources, cold %d: the replay kept no tied level",
			warm.ScanVisits, cold.ScanVisits)
	}
	t.Logf("%d passes; scans visited %d resources warm, %d cold", warm.Reallocations, warm.ScanVisits, cold.ScanVisits)
}
