package hdfs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// TestProbesAgreeWithLocations: after random sequences of node failures,
// flakes, recoveries, re-replication commits, file creation and
// stale-metadata windows, ReplicaOn and HasReplica answer exactly what
// Locations does for every block and every node, and an operation that
// changes any block's answer also changes Epoch.
func TestProbesAgreeWithLocations(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		const nodes = 8
		nn := NewNameNode(nodes, rng, WithBlockSize(100), WithReplication(1+rng.Intn(3)))
		var pending []ReplicaCopy
		files := 0
		create := func() {
			_, err := nn.Create(fmt.Sprintf("f%d", files), int64(rng.IntRange(1, 400)))
			if err != nil && !errors.Is(err, ErrNoSpace) { // too few live nodes: fine
				t.Fatal(err)
			}
			files++
		}
		create()
		create()
		for step := 0; step < 80; step++ {
			before, epoch := allLocations(nn), nn.Epoch()
			n := rng.Intn(nodes)
			switch rng.Intn(8) {
			case 0:
				copies, err := nn.Decommission(n)
				if err == nil {
					pending = append(pending, copies...)
				}
			case 1:
				nn.Recommission(n)
			case 2:
				nn.Suspend(n)
			case 3:
				nn.Resume(n)
			case 4:
				nn.BeginStale()
			case 5:
				nn.EndStale()
			case 6:
				if len(pending) > 0 {
					i := rng.Intn(len(pending))
					cp := pending[i]
					pending = slices.Delete(pending, i, i+1)
					if rng.Bool(0.8) {
						_ = nn.CommitReplica(cp.Block, cp.To) // fails when the target died: fine
					} else {
						nn.AbortReplica(cp.Block, cp.To)
					}
				}
			case 7:
				create()
			}
			after := allLocations(nn)
			for id := range after {
				var was []int // a block written by this step had no answer before
				if id < len(before) {
					was = before[id]
				}
				if !slices.Equal(was, after[id]) && nn.Epoch() == epoch {
					t.Fatalf("seed %d step %d: Locations(%d) went from %v to %v but Epoch stayed %d",
						seed, step, id, was, after[id], epoch)
				}
			}
			for id := BlockID(0); id < nn.nextBlock; id++ {
				locs := nn.Locations(id)
				if got, want := nn.HasReplica(id), len(locs) > 0; got != want {
					t.Fatalf("seed %d step %d: HasReplica(%d) = %v, Locations = %v", seed, step, id, got, locs)
				}
				for node := 0; node < nodes; node++ {
					if got, want := nn.ReplicaOn(id, node), slices.Contains(locs, node); got != want {
						t.Fatalf("seed %d step %d: ReplicaOn(%d, %d) = %v, Locations = %v",
							seed, step, id, node, got, locs)
					}
				}
			}
		}
	}
}

// TestProbesDoNotAllocate pins the reason the probes exist.
func TestProbesDoNotAllocate(t *testing.T) {
	nn := NewNameNode(8, xrand.New(1), WithBlockSize(100))
	f, err := nn.Create("a", 400)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Blocks[0].ID
	nn.Suspend(nn.Locations(id)[0])
	allocs := testing.AllocsPerRun(100, func() {
		nn.ReplicaOn(id, 3)
		nn.HasReplica(id)
	})
	if allocs != 0 {
		t.Fatalf("probes allocate %v objects per call pair, want 0", allocs)
	}
}

// allLocations returns every block's Locations answer, indexed by block.
func allLocations(nn *NameNode) [][]int {
	out := make([][]int, nn.nextBlock)
	for id := range out {
		out[id] = nn.Locations(BlockID(id))
	}
	return out
}
