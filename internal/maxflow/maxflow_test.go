package maxflow

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestMaxFlowTrivial(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5)
	if f := g.MaxFlow(0, 1); f != 5 {
		t.Fatalf("MaxFlow = %v, want 5", f)
	}
}

func TestMaxFlowSameSourceSink(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5)
	if f := g.MaxFlow(0, 0); f != 0 {
		t.Fatalf("MaxFlow(s,s) = %v", f)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style example.
	g := NewGraph(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if f := g.MaxFlow(0, 5); f != 23 {
		t.Fatalf("MaxFlow = %v, want 23", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(2, 3, 10)
	if f := g.MaxFlow(0, 3); f != 0 {
		t.Fatalf("MaxFlow across disconnected graph = %v", f)
	}
}

func TestEdgeFlowAccessors(t *testing.T) {
	g := NewGraph(3)
	a := g.AddEdge(0, 1, 7)
	b := g.AddEdge(1, 2, 4)
	g.MaxFlow(0, 2)
	if g.Flow(a) != 4 || g.Flow(b) != 4 {
		t.Fatalf("edge flows = %v, %v, want 4, 4", g.Flow(a), g.Flow(b))
	}
	if g.cap[a] != 3 {
		t.Fatalf("residual = %v, want 3", g.cap[a])
	}
}

func TestBipartiteViaMaxFlow(t *testing.T) {
	// 3 tasks, 3 executors; task i can go to executor i and (i+1)%3.
	// Perfect matching of size 3 exists.
	g := NewGraph(8) // 0 src, 1-3 tasks, 4-6 execs, 7 sink
	for i := 0; i < 3; i++ {
		g.AddEdge(0, 1+i, 1)
		g.AddEdge(1+i, 4+i, 1)
		g.AddEdge(1+i, 4+(i+1)%3, 1)
		g.AddEdge(4+i, 7, 1)
	}
	if f := g.MaxFlow(0, 7); f != 3 {
		t.Fatalf("matching size = %v, want 3", f)
	}
}

// Property: max-flow equals min-cut on random small graphs (verified by
// brute-force min-cut enumeration).
func TestQuickMaxFlowMinCut(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(2, 7)
		type edge struct {
			u, v int
			c    float64
		}
		var edges []edge
		m := rng.IntRange(1, 12)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, float64(rng.IntRange(0, 10))})
		}
		g := NewGraph(n)
		for _, e := range edges {
			g.AddEdge(e.u, e.v, e.c)
		}
		s, t0 := 0, n-1
		got := g.MaxFlow(s, t0)
		// Brute-force min cut over all subsets containing s but not t.
		best := math.Inf(1)
		for mask := 0; mask < (1 << n); mask++ {
			if mask&(1<<s) == 0 || mask&(1<<t0) != 0 {
				continue
			}
			cut := 0.0
			for _, e := range edges {
				if mask&(1<<e.u) != 0 && mask&(1<<e.v) == 0 {
					cut += e.c
				}
			}
			if cut < best {
				best = cut
			}
		}
		return math.Abs(got-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	c := g.Clone()
	if f := c.MaxFlow(0, 2); f != 5 {
		t.Fatalf("clone MaxFlow = %v", f)
	}
	// Solving the clone must not disturb the original.
	if g.cap[0] != 5 {
		t.Fatal("solving clone mutated original")
	}
}

func TestConcurrentFractionPerfect(t *testing.T) {
	// Two apps, two tasks each, four executors, disjoint candidates:
	// λ = 1 achievable (the Fig. 1 example).
	li := LocalityInstance{
		Executors: 4,
		Candidates: [][][]int{
			{{0}, {1}},
			{{2}, {3}},
		},
	}
	if got := li.FractionalUpperBound(1e-4); got != 1 {
		t.Fatalf("fraction = %v, want 1", got)
	}
}

func TestConcurrentFractionContended(t *testing.T) {
	// Two apps, one task each, both only runnable on executor 0:
	// only one can be local → λ* = 1/2 fractionally.
	li := LocalityInstance{
		Executors:  1,
		Candidates: [][][]int{{{0}}, {{0}}},
	}
	got := li.FractionalUpperBound(1e-4)
	if math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
}

func TestConcurrentFractionZeroTasks(t *testing.T) {
	li := LocalityInstance{Executors: 2, Candidates: [][][]int{{}, {}}}
	if got := li.FractionalUpperBound(1e-4); got != 1 {
		t.Fatalf("fraction with no demand = %v, want 1", got)
	}
}

// Property: the fractional bound is monotone — adding executors to a task's
// candidate set never lowers the bound.
func TestQuickConcurrentMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		apps := rng.IntRange(1, 3)
		execs := rng.IntRange(2, 6)
		cands := make([][][]int, apps)
		for i := range cands {
			tasks := rng.IntRange(1, 4)
			for k := 0; k < tasks; k++ {
				c := rng.Sample(execs, rng.IntRange(1, 2))
				cands[i] = append(cands[i], c)
			}
		}
		base := LocalityInstance{Executors: execs, Candidates: cands}.FractionalUpperBound(1e-3)
		// Widen one random task's candidates to all executors.
		wider := make([][][]int, apps)
		for i := range cands {
			wider[i] = append([][]int(nil), cands[i]...)
		}
		ai := rng.Intn(apps)
		ti := rng.Intn(len(wider[ai]))
		all := make([]int, execs)
		for e := range all {
			all[e] = e
		}
		wider[ai][ti] = all
		after := LocalityInstance{Executors: execs, Candidates: wider}.FractionalUpperBound(1e-3)
		return after+5e-3 >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCostFlowSimple(t *testing.T) {
	// Two parallel paths: cheap (cost 1, cap 2) and expensive (cost 5, cap 10).
	g := NewMinCostGraph(2)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(0, 1, 10, 5)
	flow, cost := g.MinCostFlow(0, 1, 5)
	if flow != 5 {
		t.Fatalf("flow = %v, want 5", flow)
	}
	if cost != 2*1+3*5 {
		t.Fatalf("cost = %v, want 17", cost)
	}
}

func TestMinCostFlowPath(t *testing.T) {
	g := NewMinCostGraph(4)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(1, 3, 1, 3)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(2, 3, 2, 1)
	flow, cost := g.MinCostFlow(0, 3, 3)
	if flow != 3 {
		t.Fatalf("flow = %v, want 3", flow)
	}
	// Cheapest: 0→1→2→3 (cost 3), 0→2→3 (cost 3), 0→1→3 (cost 4) = 10.
	if cost != 10 {
		t.Fatalf("cost = %v, want 10", cost)
	}
}

func TestMinCostFlowNegativeCosts(t *testing.T) {
	g := NewMinCostGraph(3)
	g.AddEdge(0, 1, 1, -2)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(0, 2, 1, 5)
	flow, cost := g.MinCostFlow(0, 2, 2)
	if flow != 2 {
		t.Fatalf("flow = %v, want 2", flow)
	}
	if cost != (-2+1)+5 {
		t.Fatalf("cost = %v, want 4", cost)
	}
}

func TestMinCostFlowAssignment(t *testing.T) {
	// 2 tasks × 2 executors assignment: costs [[1, 10], [10, 1]].
	// Min-cost perfect assignment = 2.
	g := NewMinCostGraph(6) // 0 src, 1-2 tasks, 3-4 execs, 5 sink
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(1, 3, 1, 1)
	g.AddEdge(1, 4, 1, 10)
	g.AddEdge(2, 3, 1, 10)
	g.AddEdge(2, 4, 1, 1)
	g.AddEdge(3, 5, 1, 0)
	g.AddEdge(4, 5, 1, 0)
	flow, cost := g.MinCostFlow(0, 5, 2)
	if flow != 2 || cost != 2 {
		t.Fatalf("flow=%v cost=%v, want 2, 2", flow, cost)
	}
}

// Property: min-cost flow pushes the same total flow as max-flow.
func TestQuickMinCostMatchesMaxFlow(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(2, 7)
		type edge struct {
			u, v int
			c    float64
			w    float64
		}
		var edges []edge
		for i := 0; i < rng.IntRange(1, 12); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, float64(rng.IntRange(0, 8)), float64(rng.IntRange(0, 5))})
		}
		mf := NewGraph(n)
		mc := NewMinCostGraph(n)
		for _, e := range edges {
			mf.AddEdge(e.u, e.v, e.c)
			mc.AddEdge(e.u, e.v, e.c, e.w)
		}
		want := mf.MaxFlow(0, n-1)
		got, _ := mc.MinCostFlow(0, n-1, math.Inf(1))
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDinicBipartite(b *testing.B) {
	rng := xrand.New(11)
	const tasks, execs = 200, 200
	for i := 0; i < b.N; i++ {
		g := NewGraph(2 + tasks + execs)
		sink := 1 + tasks + execs
		for t := 0; t < tasks; t++ {
			g.AddEdge(0, 1+t, 1)
			for _, e := range rng.Sample(execs, 3) {
				g.AddEdge(1+t, 1+tasks+e, 1)
			}
		}
		for e := 0; e < execs; e++ {
			g.AddEdge(1+tasks+e, sink, 1)
		}
		if g.MaxFlow(0, sink) == 0 {
			b.Fatal("no flow")
		}
	}
}

func BenchmarkConcurrentFractionalBound(b *testing.B) {
	rng := xrand.New(13)
	const execs = 60
	cands := make([][][]int, 3)
	for a := range cands {
		for k := 0; k < 20; k++ {
			cands[a] = append(cands[a], rng.Sample(execs, 3))
		}
	}
	li := LocalityInstance{Executors: execs, Candidates: cands}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if li.FractionalUpperBound(1e-3) <= 0 {
			b.Fatal("zero bound")
		}
	}
}
