package hdfs

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func newNN(t *testing.T, n int, opts ...Option) *NameNode {
	t.Helper()
	return NewNameNode(n, xrand.New(42), opts...)
}

func TestCreateSplitsIntoBlocks(t *testing.T) {
	nn := newNN(t, 10, WithBlockSize(100))
	f, err := nn.Create("a", 350)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("350B file with 100B blocks → %d blocks, want 4", len(f.Blocks))
	}
	sizes := []int64{100, 100, 100, 50}
	var total int64
	for i, b := range f.Blocks {
		if b.Size != sizes[i] {
			t.Fatalf("block %d size %d, want %d", i, b.Size, sizes[i])
		}
		if b.Index != i {
			t.Fatalf("block %d has index %d", i, b.Index)
		}
		total += b.Size
	}
	if total != 350 {
		t.Fatalf("block sizes sum to %d, want 350", total)
	}
}

func TestReplication(t *testing.T) {
	nn := newNN(t, 10, WithBlockSize(100), WithReplication(3))
	f, err := nn.Create("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		locs := nn.Locations(b.ID)
		if len(locs) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b.ID, len(locs))
		}
		seen := map[int]bool{}
		for _, n := range locs {
			if seen[n] {
				t.Fatalf("block %d has duplicate replica on node %d", b.ID, n)
			}
			seen[n] = true
			if !nn.DataNode(n).Holds(b.ID) {
				t.Fatalf("NameNode/DataNode disagree on block %d @ node %d", b.ID, n)
			}
		}
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	nn := newNN(t, 5)
	if _, err := nn.Create("a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Create("a", 100); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Create error = %v, want ErrExists", err)
	}
}

func TestCreateInvalidSize(t *testing.T) {
	nn := newNN(t, 5)
	if _, err := nn.Create("z", 0); err == nil {
		t.Fatal("Create with size 0 succeeded")
	}
}

func TestOpenAndExists(t *testing.T) {
	nn := newNN(t, 5)
	if _, err := nn.Open("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open on empty namespace error = %v, want ErrNotFound", err)
	}
	nn.Create("a", 100)
	f, err := nn.Open("a")
	if err != nil || f.Name != "a" {
		t.Fatalf("Open: %v %v", f, err)
	}
	if _, err := nn.Open("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open missing file error = %v", err)
	}
}

func TestSmallClusterPartialReplication(t *testing.T) {
	nn := newNN(t, 2, WithReplication(3))
	f, err := nn.Create("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nn.Locations(f.Blocks[0].ID)); got != 2 {
		t.Fatalf("2-node cluster placed %d replicas, want 2", got)
	}
}

// TestCreateNoEligibleDataNode: with every DataNode dead or flaking there
// is nowhere to place a replica, so Create fails with ErrNoSpace.
func TestCreateNoEligibleDataNode(t *testing.T) {
	nn := newNN(t, 3, WithBlockSize(100), WithReplication(1))
	if _, err := nn.Decommission(0); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Decommission(1); err != nil {
		t.Fatal(err)
	}
	nn.Suspend(2)
	if _, err := nn.Create("a", 100); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Create with no live DataNode error = %v, want ErrNoSpace", err)
	}
	nn.Resume(2)
	f, err := nn.Create("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if locs := nn.Locations(f.Blocks[0].ID); len(locs) != 1 || locs[0] != 2 {
		t.Fatalf("Locations = %v, want the one live node [2]", locs)
	}
}

func TestDecommissionReplicates(t *testing.T) {
	nn := newNN(t, 10, WithBlockSize(100), WithReplication(3))
	f, _ := nn.Create("a", 1000)
	victim := nn.Locations(f.Blocks[0].ID)[0]
	before := len(nn.DataNode(victim).blocks)
	if before == 0 {
		t.Fatal("victim node holds no blocks")
	}
	copies, err := nn.Decommission(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != before {
		t.Fatalf("re-replicated %d blocks, want %d", len(copies), before)
	}
	for _, cp := range copies {
		if cp.From == victim || cp.To == victim {
			t.Fatalf("copy involves the dead node: %+v", cp)
		}
		if cp.Size <= 0 {
			t.Fatalf("copy with no size: %+v", cp)
		}
		// Targets are pending until the transfer commits: not yet readable.
		if nn.DataNode(cp.To).Holds(cp.Block) {
			t.Fatalf("copy target registered before CommitReplica: %+v", cp)
		}
		found := false
		for _, n := range nn.PendingReplicas(cp.Block) {
			if n == cp.To {
				found = true
			}
		}
		if !found {
			t.Fatalf("copy target not pending: %+v", cp)
		}
		if err := nn.CommitReplica(cp.Block, cp.To); err != nil {
			t.Fatalf("CommitReplica: %v", err)
		}
		if !nn.DataNode(cp.To).Holds(cp.Block) {
			t.Fatalf("copy target missing block after commit: %+v", cp)
		}
	}
	if ids := nn.PendingBlockIDs(); len(ids) != 0 {
		t.Fatalf("pending blocks remain after all commits: %v", ids)
	}
	for _, b := range f.Blocks {
		locs := nn.Locations(b.ID)
		if len(locs) != 3 {
			t.Fatalf("block %d has %d live replicas after decommission", b.ID, len(locs))
		}
		for _, n := range locs {
			if n == victim {
				t.Fatalf("Locations returned dead node %d", victim)
			}
		}
	}
	if _, err := nn.Decommission(victim); err == nil {
		t.Fatal("double decommission succeeded")
	}
	nn.Recommission(victim)
	if !nn.DataNode(victim).Alive() {
		t.Fatal("node dead after Recommission")
	}
}

func TestRecordAccess(t *testing.T) {
	nn := newNN(t, 5, WithBlockSize(100))
	f, _ := nn.Create("a", 200)
	nn.RecordAccess(f.Blocks[0].ID)
	nn.RecordAccess(f.Blocks[1].ID)
	if f.Accesses != 2 {
		t.Fatalf("Accesses = %d, want 2", f.Accesses)
	}
}

func TestPopularityPolicyExtraReplicas(t *testing.T) {
	p := &PopularityPolicy{Weights: map[string]float64{"hot": 3}, MaxExtra: 5}
	nn := newNN(t, 20, WithPolicy(p), WithBlockSize(100), WithReplication(3))
	hot, _ := nn.Create("hot", 300)
	cold, _ := nn.Create("cold", 300)
	for _, b := range hot.Blocks {
		if got := len(nn.Locations(b.ID)); got != 5 {
			t.Fatalf("hot block has %d replicas, want 5 (3 + weight 3 - 1)", got)
		}
	}
	for _, b := range cold.Blocks {
		if got := len(nn.Locations(b.ID)); got != 3 {
			t.Fatalf("cold block has %d replicas, want 3", got)
		}
	}
}

func TestPopularityMaxExtraCap(t *testing.T) {
	p := &PopularityPolicy{Weights: map[string]float64{"hot": 100}, MaxExtra: 2}
	nn := newNN(t, 20, WithPolicy(p), WithBlockSize(100), WithReplication(3))
	hot, _ := nn.Create("hot", 100)
	if got := len(nn.Locations(hot.Blocks[0].ID)); got != 5 {
		t.Fatalf("capped hot block has %d replicas, want 5", got)
	}
}

// Property: for any file size and block size, the blocks exactly tile the
// file and every block has min(replication, nodes) distinct replicas.
func TestQuickCreateInvariants(t *testing.T) {
	f := func(seed uint64, sizeRaw uint32, bsRaw uint16, nRaw, repRaw uint8) bool {
		n := int(nRaw%20) + 1
		rep := int(repRaw%5) + 1
		bs := int64(bsRaw%1000) + 1
		size := int64(sizeRaw%100000) + 1
		nn := NewNameNode(n, xrand.New(seed), WithBlockSize(bs), WithReplication(rep))
		file, err := nn.Create("f", size)
		if err != nil {
			return false
		}
		var total int64
		for _, b := range file.Blocks {
			total += b.Size
			if b.Size <= 0 || b.Size > bs {
				return false
			}
			locs := nn.Locations(b.ID)
			want := rep
			if n < rep {
				want = n
			}
			if len(locs) != want {
				return false
			}
			seen := map[int]bool{}
			for _, node := range locs {
				if seen[node] {
					return false
				}
				seen[node] = true
			}
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFilesSorted(t *testing.T) {
	nn := newNN(t, 5)
	nn.Create("zeta", 10)
	nn.Create("alpha", 10)
	nn.Create("mid", 10)
	files := nn.Files()
	if len(files) != 3 || files[0] != "alpha" || files[1] != "mid" || files[2] != "zeta" {
		t.Fatalf("Files() = %v", files)
	}
}

func TestRandomSelector(t *testing.T) {
	nn := newNN(t, 10)
	rng := xrand.New(5)
	locs := []int{2, 5, 8}
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		src := RandomSelector{}.Pick(nn, locs, 0, rng)
		counts[src]++
	}
	for _, n := range locs {
		if counts[n] < 800 {
			t.Fatalf("replica %d underpicked: %v", n, counts)
		}
	}
}

func TestClosestSelectorPrefersRack(t *testing.T) {
	nn := newNN(t, 12, WithRacks(4)) // racks: 0-3, 4-7, 8-11
	rng := xrand.New(7)
	// Reader on node 1 (rack 0); replicas on 2 (rack 0), 6 (rack 1), 10 (rack 2).
	for i := 0; i < 100; i++ {
		if src := (ClosestSelector{}).Pick(nn, []int{2, 6, 10}, 1, rng); src != 2 {
			t.Fatalf("closest picked %d, want same-rack 2", src)
		}
	}
	// No same-rack replica: any of the given is acceptable.
	src := (ClosestSelector{}).Pick(nn, []int{6, 10}, 1, rng)
	if src != 6 && src != 10 {
		t.Fatalf("fallback picked %d", src)
	}
}

func TestLeastLoadedSelectorBalances(t *testing.T) {
	nn := newNN(t, 6)
	rng := xrand.New(9)
	sel := NewLeastLoadedSelector()
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		src := sel.Pick(nn, []int{1, 3, 5}, 0, rng)
		counts[src]++
	}
	for _, n := range []int{1, 3, 5} {
		if counts[n] != 100 {
			t.Fatalf("least-loaded not balanced: %v", counts)
		}
	}
}

func TestSuspendResume(t *testing.T) {
	nn := newNN(t, 6, WithBlockSize(100), WithReplication(3))
	f, _ := nn.Create("a", 100)
	id := f.Blocks[0].ID
	victim := nn.Locations(id)[0]
	if !nn.Suspend(victim) {
		t.Fatal("Suspend returned false on a healthy node")
	}
	if nn.Suspend(victim) {
		t.Fatal("double Suspend returned true")
	}
	if nn.DataNode(victim).Alive() {
		t.Fatal("suspended node reports Alive")
	}
	for _, n := range nn.Locations(id) {
		if n == victim {
			t.Fatal("Locations lists a suspended node")
		}
	}
	if !nn.DataNode(victim).Holds(id) {
		t.Fatal("suspension dropped the replica")
	}
	if !nn.Resume(victim) {
		t.Fatal("Resume returned false on a suspended node")
	}
	if nn.Resume(victim) {
		t.Fatal("Resume of a healthy node returned true")
	}
	found := false
	for _, n := range nn.Locations(id) {
		if n == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("resumed node missing from Locations")
	}
}

func TestStaleMetadataWindow(t *testing.T) {
	nn := newNN(t, 8, WithBlockSize(100), WithReplication(3))
	f, _ := nn.Create("a", 100)
	id := f.Blocks[0].ID
	before := nn.Locations(id)
	if !nn.BeginStale() {
		t.Fatal("BeginStale returned false")
	}
	if nn.BeginStale() {
		t.Fatal("nested BeginStale returned true")
	}
	victim := before[0]
	if _, err := nn.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	stale := nn.Locations(id)
	if len(stale) != len(before) {
		t.Fatalf("stale Locations = %v, want frozen %v", stale, before)
	}
	if fresh := nn.liveLocations(id); len(fresh) != len(before)-1 {
		t.Fatalf("liveLocations = %v leaked stale data, want %d fresh replicas", fresh, len(before)-1)
	}
	if !nn.EndStale() {
		t.Fatal("EndStale returned false")
	}
	if nn.EndStale() {
		t.Fatal("EndStale with no window returned true")
	}
	for _, n := range nn.Locations(id) {
		if n == victim {
			t.Fatal("fresh Locations lists the dead node after EndStale")
		}
	}
}

func TestAbortReplica(t *testing.T) {
	nn := newNN(t, 6, WithBlockSize(100), WithReplication(3))
	f, _ := nn.Create("a", 100)
	id := f.Blocks[0].ID
	victim := nn.Locations(id)[0]
	copies, err := nn.Decommission(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != 1 {
		t.Fatalf("got %d copies, want 1", len(copies))
	}
	cp := copies[0]
	nn.AbortReplica(cp.Block, cp.To)
	if err := nn.CommitReplica(cp.Block, cp.To); err == nil {
		t.Fatal("CommitReplica after Abort succeeded")
	}
	if got := len(nn.PendingReplicas(cp.Block)); got != 0 {
		t.Fatalf("pending after abort = %d, want 0", got)
	}
	// A fresh decommission of another replica holder re-plans the copy.
	nn.AbortReplica(cp.Block, cp.To) // no-op on absent entry
}
