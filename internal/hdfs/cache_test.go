package hdfs

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestCacheLRUEvictsLeastRecent(t *testing.T) {
	c := NewBlockCache(300, CacheLRU)
	for id := BlockID(1); id <= 3; id++ {
		if c.Touch(id) {
			t.Fatalf("Touch(%d) hit an empty cache", id)
		}
		c.Admit(id, 100)
	}
	if !c.Touch(1) { // renew 1: the LRU victim is now 2
		t.Fatal("Touch(1) missed a cached block")
	}
	if n := c.Admit(4, 100); n != 1 {
		t.Fatalf("Admit(4) evicted %d blocks, want 1", n)
	}
	if c.Contains(2) {
		t.Fatal("LRU evicted the wrong block: 2 should be the victim")
	}
	for _, id := range []BlockID{1, 3, 4} {
		if !c.Contains(id) {
			t.Fatalf("block %d missing after eviction", id)
		}
	}
	if c.Hits() != 1 || c.Misses() != 3 || c.Evictions() != 1 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d, want 1/3/1",
			c.Hits(), c.Misses(), c.Evictions())
	}
}

func TestCacheCapacityBound(t *testing.T) {
	c := NewBlockCache(250, CacheLRU)
	for id := BlockID(0); id < 10; id++ {
		c.Admit(id, 100)
		if c.Used() > c.Capacity() {
			t.Fatalf("Used %d exceeds Capacity %d after Admit(%d)", c.Used(), c.Capacity(), id)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (250B cache holds two 100B blocks)", c.Len())
	}
	// A block larger than the whole cache is never admitted.
	if n := c.Admit(99, 300); n != 0 || c.Contains(99) {
		t.Fatalf("oversized block admitted (evictions=%d, contains=%v)", n, c.Contains(99))
	}
}

func TestCacheContainsIsPure(t *testing.T) {
	c := NewBlockCache(200, CacheLRU)
	c.Admit(1, 100)
	c.Admit(2, 100)
	// Peeking at 1 must not renew it: 1 stays the LRU victim.
	for i := 0; i < 10; i++ {
		if !c.Contains(1) {
			t.Fatal("Contains lost a cached block")
		}
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("Contains touched counters: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	c.Admit(3, 100)
	if c.Contains(1) {
		t.Fatal("Contains renewed recency: 1 survived an eviction it should not have")
	}
}

func TestCache2QScanResistance(t *testing.T) {
	c := NewBlockCache(400, Cache2Q) // probationary share: 100
	c.Admit(1, 100)
	if !c.Touch(1) { // graduate the hot block into the main queue
		t.Fatal("Touch(1) missed")
	}
	// A one-pass scan of cold blocks churns the probationary FIFO but must
	// not flush the graduated hot block.
	for id := BlockID(10); id < 30; id++ {
		c.Touch(id)
		c.Admit(id, 100)
	}
	if !c.Contains(1) {
		t.Fatal("2Q let a scan evict the re-referenced hot block")
	}
}

func TestCache2QProbationEvictsFIFO(t *testing.T) {
	c := NewBlockCache(400, Cache2Q)
	// Never re-referenced: all four sit in probation, filling the cache.
	for id := BlockID(1); id <= 4; id++ {
		c.Admit(id, 100)
	}
	c.Admit(5, 100)
	if c.Contains(1) {
		t.Fatal("2Q probation is not FIFO: oldest unreferenced block survived")
	}
	if !c.Contains(5) {
		t.Fatal("new block not admitted")
	}
}

func TestCacheClear(t *testing.T) {
	c := NewBlockCache(300, Cache2Q)
	c.Admit(1, 100)
	c.Admit(2, 100)
	c.Touch(2) // graduate 2 so both lists are exercised
	hits, misses := c.Hits(), c.Misses()
	if n := c.Clear(); n != 2 {
		t.Fatalf("Clear dropped %d, want 2", n)
	}
	if c.Evictions() != 0 {
		t.Fatalf("Clear counted as eviction: %d", c.Evictions())
	}
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatalf("Clear left state: len=%d used=%d", c.Len(), c.Used())
	}
	if c.Hits() != hits || c.Misses() != misses {
		t.Fatal("Clear reset the hit/miss counters; they count events, not contents")
	}
	// The cache keeps working after Clear.
	c.Admit(3, 100)
	if !c.Contains(3) {
		t.Fatal("Admit after Clear failed")
	}
}

// Property: for any access sequence, both policies keep Used within
// Capacity, agree with the entry set, and replaying the same sequence
// reproduces the exact same contents and counters — eviction order is a
// pure function of the access sequence.
func TestQuickCacheDeterminism(t *testing.T) {
	run := func(pol CachePolicy, ops []uint16) *BlockCache {
		c := NewBlockCache(500, pol)
		for _, op := range ops {
			id := BlockID(op % 16)
			size := int64(op%200) + 1
			if !c.Touch(id) {
				c.Admit(id, size)
			}
		}
		return c
	}
	f := func(ops []uint16) bool {
		for _, pol := range []CachePolicy{CacheLRU, Cache2Q} {
			a, b := run(pol, ops), run(pol, ops)
			if a.Used() > a.Capacity() || a.Used() < 0 {
				return false
			}
			if a.Used() != b.Used() || a.Hits() != b.Hits() ||
				a.Misses() != b.Misses() || a.Evictions() != b.Evictions() {
				return false
			}
			ab, bb := a.Blocks(), b.Blocks()
			if len(ab) != len(bb) {
				return false
			}
			for i := range ab {
				if ab[i] != bb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWithBlockCacheCoherence(t *testing.T) {
	nn := newNN(t, 4, WithBlockSize(100), WithReplication(2), WithBlockCache(1<<20, CacheLRU))
	if !nn.CacheEnabled() {
		t.Fatal("CacheEnabled false with WithBlockCache")
	}
	f, _ := nn.Create("a", 100)
	id := f.Blocks[0].ID
	holder := nn.Locations(id)[0]
	nn.Cache(holder).Admit(id, 100)
	if !nn.CacheContains(holder, id) {
		t.Fatal("CacheContains false after Admit")
	}

	// Suspension (a flake) retains warm state; the memory survived.
	nn.Suspend(holder)
	if !nn.CacheContains(holder, id) {
		t.Fatal("Suspend dropped cache state")
	}
	nn.Resume(holder)

	// Decommission (node failure) loses the in-memory tier entirely, and a
	// recommissioned node starts cold.
	if _, err := nn.Decommission(holder); err != nil {
		t.Fatal(err)
	}
	if nn.Cache(holder).Len() != 0 {
		t.Fatal("Decommission retained cache state")
	}
	nn.Recommission(holder)
	if nn.Cache(holder).Len() != 0 {
		t.Fatal("Recommission resurrected cache state")
	}
}

func TestCacheAwareSelectorPrefersWarmReplica(t *testing.T) {
	nn := newNN(t, 8, WithRacks(2), WithBlockSize(100), WithReplication(3), WithBlockCache(1<<20, CacheLRU))
	f, _ := nn.Create("a", 100)
	id := f.Blocks[0].ID
	locs := nn.Locations(id)
	rng := xrand.New(3)
	sel := &CacheAwareSelector{}

	// No replica warm: defers to the fallback (closest) selector.
	want := (ClosestSelector{}).Pick(nn, locs, locs[0], rng)
	if got := sel.PickBlock(nn, id, locs, locs[0], rng); got != want {
		t.Fatalf("cold pick = %d, want fallback's %d", got, want)
	}

	// Warm a replica: it must win regardless of rack distance.
	warm := locs[len(locs)-1]
	nn.Cache(warm).Admit(id, 100)
	for i := 0; i < 20; i++ {
		if got := sel.PickBlock(nn, id, locs, locs[0], rng); got != warm {
			t.Fatalf("warm pick = %d, want cached replica %d", got, warm)
		}
	}
}
