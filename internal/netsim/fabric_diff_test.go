package netsim

import (
	"math"
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
// the recompute changes nothing.

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
	opCustomDup
	opZero
	opCancel
	opScaleLinks
	opScaleDisk
	opSetPartition
	opClearPartition
	opBatch
	numOps
)

// fabricPair holds the two fabrics under comparison and every flow started
// on them, in start order.
type fabricPair struct {
	t          *testing.T
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

// runFabricEquivalence decodes a fabric configuration and up to 80
// operations from data and checks the two fabrics agree throughout.
func runFabricEquivalence(t *testing.T, data []byte) *fabricPair {
	t.Helper()
	b := &opBytes{data: data}
	nodes := 2 + b.next()%4
	caps := [4]float64{10, 20, 40, 100}
	cfg := Config{
		UplinkBps:   caps[b.next()%4],
		DownlinkBps: caps[b.next()%4],
		DiskBps:     caps[b.next()%4],
		MemoryBps:   caps[b.next()%4],
		LatencySec:  [3]float64{0, 0, 0.5}[b.next()%3],
	}
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
	now := 0.0
	for ops := 0; b.more() && ops < 80; ops++ {
		now += float64(b.next()%4) * 0.25
		p.engP.RunUntil(now)
		p.engR.RunUntil(now)
		p.step(b, 0)
		p.compare(ops)
	}
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
	return p
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

// resource resolves a (kind, node) pair on both fabrics.
func (p *fabricPair) resource(kind, node int) (*Resource, *refResource) {
	switch kind % 4 {
	case 0:
		return p.fb.up[node], p.rf.up[node]
	case 1:
		return p.fb.down[node], p.rf.down[node]
	case 2:
		return p.fb.disk[node], p.rf.disk[node]
	}
	return p.fb.mem[node], p.rf.mem[node]
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
		src, dst, sz := node(), node(), size()
		dp, dr := p.callbacks()
		p.started(p.fb.Transfer(src, dst, sz, dp), p.rf.Transfer(src, dst, sz, dr))
	case opCustomDup:
		// Lists its first resource twice: attached once, counted twice.
		ap, ar := p.resource(b.next(), node())
		bp, br := p.resource(b.next(), node())
		sz := size()
		dp, dr := p.callbacks()
		p.started(p.fb.StartCustom(sz, dp, ap, bp, ap), p.rf.StartCustom(sz, dr, ar, br, ar))
	case opZero:
		src, dst := node(), node()
		dp, dr := p.callbacks()
		p.started(p.fb.Transfer(src, dst, 0, dp), p.rf.Transfer(src, dst, 0, dr))
	case opCancel:
		if len(p.prod) == 0 {
			return
		}
		i := b.next() % len(p.prod)
		p.fb.Cancel(p.prod[i])
		p.rf.Cancel(p.ref[i])
	case opScaleLinks:
		n, f := node(), factor()
		p.fb.ScaleLinks(n, f)
		p.rf.ScaleLinks(n, f)
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
}

// TestFabricMatchesReference runs random operation sequences against the
// frozen solver on a table of fabric shapes. Equal capacities make shares
// tie often, which exercises the first-touch tie-break.
func TestFabricMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		header []byte // nodes, uplink, downlink, disk, memory, latency
	}{
		{"two-nodes", []byte{0, 0, 1, 2, 3, 0}},
		{"five-nodes-mixed", []byte{3, 1, 3, 2, 0, 0}},
		{"equal-capacities", []byte{1, 1, 1, 1, 1, 0}},
		{"setup-latency", []byte{2, 0, 2, 1, 3, 2}},
		{"equal-capacities-latency", []byte{3, 2, 2, 2, 2, 2}},
	}
	var kinds [numOps]int
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 40; seed++ {
				rng := xrand.New(seed)
				data := append([]byte(nil), c.header...)
				for i := 0; i < 300; i++ {
					data = append(data, byte(rng.Intn(256)))
				}
				p := runFabricEquivalence(t, data)
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
	f.Add([]byte{0, 0, 1, 2, 3, 0, 1, 0, 0, 5, 7, 0, 3, 1, 1, 9, 2, 6, 0})
	f.Add([]byte{3, 1, 1, 1, 1, 2, 0, 11, 3, 3, 0, 1, 2, 0, 4, 0, 2, 0, 2, 1, 5, 0, 6, 2})
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
			fb.UplinkResource(src).Capacity = 100 / float64(src+2)
			fb.Transfer(src, 0, 1e6, nil)
		}
		u := math.Float64bits(fb.Utilization(fb.DownlinkResource(0)))
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
// slices warm, it allocates only the completion timer.
func TestPassAllocs(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 20, LinodeConfig())
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		src, dst := rng.Intn(20), rng.Intn(20)
		fb.RemoteReadCap(src, dst, 128e6, 50e6, nil)
		fb.Transfer(dst, src, 64e6, nil)
	}
	fb.SetPartition(append(make([]int, 10), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 1e8)
	if allocs := testing.AllocsPerRun(200, fb.changed); allocs > 1 {
		t.Fatalf("a pass allocates %v objects, want at most 1 (the completion timer)", allocs)
	}
}
