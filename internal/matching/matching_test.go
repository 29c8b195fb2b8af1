package matching

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestHopcroftKarpPerfect(t *testing.T) {
	adj := [][]int{{0, 1}, {1, 2}, {2, 0}}
	_, size := HopcroftKarp(3, 3, adj)
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
}

func TestHopcroftKarpBottleneck(t *testing.T) {
	// All three left vertices share a single right vertex.
	adj := [][]int{{0}, {0}, {0}}
	matchL, size := HopcroftKarp(3, 1, adj)
	if size != 1 {
		t.Fatalf("size = %d, want 1", size)
	}
	matched := 0
	for _, m := range matchL {
		if m != -1 {
			matched++
		}
	}
	if matched != 1 {
		t.Fatalf("matched %d left vertices, want 1", matched)
	}
}

func TestHopcroftKarpEmpty(t *testing.T) {
	if _, size := HopcroftKarp(0, 0, nil); size != 0 {
		t.Fatalf("empty graph size = %d", size)
	}
	adj := [][]int{{}, {}}
	if _, size := HopcroftKarp(2, 3, adj); size != 0 {
		t.Fatalf("edgeless graph size = %d", size)
	}
}

func TestHopcroftKarpAugmenting(t *testing.T) {
	// Requires an augmenting path: greedy left-to-right would match
	// 0→0, 1 stuck; HK must re-route 0→1, 1→0.
	adj := [][]int{{0, 1}, {0}}
	_, size := HopcroftKarp(2, 2, adj)
	if size != 2 {
		t.Fatalf("size = %d, want 2 (needs augmenting path)", size)
	}
}

// brute-force maximum matching by bitmask DP over right side.
func bruteMatch(nLeft, nRight int, adj [][]int) int {
	best := 0
	var rec func(u, usedMask, count int)
	rec = func(u, usedMask, count int) {
		if count+(nLeft-u) <= best {
			return
		}
		if u == nLeft {
			if count > best {
				best = count
			}
			return
		}
		rec(u+1, usedMask, count)
		for _, v := range adj[u] {
			if usedMask&(1<<v) == 0 {
				rec(u+1, usedMask|1<<v, count+1)
			}
		}
	}
	rec(0, 0, 0)
	return best
}

// Property: HK matches brute force on random small graphs and returns a
// consistent matching.
func TestQuickHopcroftKarp(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nl := rng.IntRange(1, 7)
		nr := rng.IntRange(1, 7)
		adj := make([][]int, nl)
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if rng.Bool(0.4) {
					adj[u] = append(adj[u], v)
				}
			}
		}
		matchL, size := HopcroftKarp(nl, nr, adj)
		if size != bruteMatch(nl, nr, adj) {
			return false
		}
		// Validity: matched pairs must be edges and right side distinct.
		usedR := map[int]bool{}
		count := 0
		for u, v := range matchL {
			if v == -1 {
				continue
			}
			count++
			ok := false
			for _, w := range adj[u] {
				if w == v {
					ok = true
				}
			}
			if !ok || usedR[v] {
				return false
			}
			usedR[v] = true
		}
		return count == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHungarianSimple(t *testing.T) {
	w := [][]float64{
		{3, 1},
		{1, 3},
	}
	assign, total := MaxWeightAssignment(w)
	if total != 6 {
		t.Fatalf("total = %v, want 6", total)
	}
	if assign[0] != 0 || assign[1] != 1 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestHungarianAntiGreedy(t *testing.T) {
	// Greedy takes (0,0)=10 then (1,1)=1 → 11; optimal is 9+8=17? no:
	// weights chosen so optimal differs from greedy.
	w := [][]float64{
		{10, 9},
		{9, 1},
	}
	_, total := MaxWeightAssignment(w)
	if total != 18 { // (0,1)+(1,0) = 9+9
		t.Fatalf("total = %v, want 18", total)
	}
}

func TestHungarianForbidden(t *testing.T) {
	ninf := math.Inf(-1)
	w := [][]float64{
		{ninf, 5},
		{ninf, 7},
	}
	assign, total := MaxWeightAssignment(w)
	if total != 7 {
		t.Fatalf("total = %v, want 7 (only one item can take column 1)", total)
	}
	if assign[0] != -1 || assign[1] != 1 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestHungarianRectangular(t *testing.T) {
	// More left items than right slots.
	w := [][]float64{
		{4},
		{9},
		{2},
	}
	assign, total := MaxWeightAssignment(w)
	if total != 9 {
		t.Fatalf("total = %v, want 9", total)
	}
	if assign[1] != 0 || assign[0] != -1 || assign[2] != -1 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestHungarianEmpty(t *testing.T) {
	assign, total := MaxWeightAssignment(nil)
	if assign != nil || total != 0 {
		t.Fatalf("empty: %v %v", assign, total)
	}
}

// brute-force optimal assignment for verification.
func bruteAssign(w [][]float64) float64 {
	nl := len(w)
	if nl == 0 {
		return 0
	}
	nr := len(w[0])
	best := 0.0
	var rec func(i, mask int, sum float64)
	rec = func(i, mask int, sum float64) {
		if i == nl {
			if sum > best {
				best = sum
			}
			return
		}
		rec(i+1, mask, sum) // skip
		for j := 0; j < nr; j++ {
			if mask&(1<<j) != 0 || math.IsInf(w[i][j], -1) {
				continue
			}
			rec(i+1, mask|1<<j, sum+w[i][j])
		}
	}
	rec(0, 0, 0)
	return best
}

// Property: Hungarian equals brute force on random instances with
// non-negative weights and random forbidden pairs.
func TestQuickHungarianOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nl := rng.IntRange(1, 5)
		nr := rng.IntRange(1, 5)
		w := make([][]float64, nl)
		for i := range w {
			w[i] = make([]float64, nr)
			for j := range w[i] {
				if rng.Bool(0.25) {
					w[i][j] = math.Inf(-1)
				} else {
					w[i][j] = float64(rng.IntRange(0, 20))
				}
			}
		}
		_, got := MaxWeightAssignment(w)
		want := bruteAssign(w)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHopcroftKarp(b *testing.B) {
	rng := xrand.New(3)
	const nl, nr = 200, 200
	adj := make([][]int, nl)
	for u := 0; u < nl; u++ {
		for _, v := range rng.Sample(nr, 5) {
			adj[u] = append(adj[u], v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, size := HopcroftKarp(nl, nr, adj); size == 0 {
			b.Fatal("empty matching")
		}
	}
}

func BenchmarkHungarian100(b *testing.B) {
	rng := xrand.New(5)
	const n = 100
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = float64(rng.IntRange(0, 1000))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, total := MaxWeightAssignment(w); total <= 0 {
			b.Fatal("zero assignment")
		}
	}
}
