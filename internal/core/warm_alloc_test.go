package core

import (
	"testing"

	"repro/internal/hdfs"
	"repro/internal/race"
	"repro/internal/xrand"
)

// MicroInstance builds the deterministic allocation microbenchmark instance:
// nodes nodes with two 2-slot executors each, eight applications with a
// dozen jobs of forty 3-replicated tasks, budgets set to an even share.
func MicroInstance(nodes int, rng *xrand.Rand) ([]AppDemand, []ExecInfo) {
	const (
		execsPerNode = 2
		apps         = 8
		jobsPerApp   = 12
		tasksPerJob  = 40
		replicas     = 3
	)
	var idle []ExecInfo
	for n := 0; n < nodes; n++ {
		for e := 0; e < execsPerNode; e++ {
			idle = append(idle, ExecInfo{ID: n*execsPerNode + e, Node: n, Slots: 2})
		}
	}
	var demands []AppDemand
	block := 0
	for a := 0; a < apps; a++ {
		ad := AppDemand{
			App:        a,
			Budget:     nodes * execsPerNode / apps,
			ExtraTasks: 4,
			TotalJobs:  jobsPerApp,
			LocalJobs:  a % 3,
			TotalTasks: jobsPerApp * tasksPerJob,
			LocalTasks: (a % 3) * tasksPerJob,
		}
		for j := 0; j < jobsPerApp; j++ {
			jd := JobDemand{Job: j}
			for k := 0; k < tasksPerJob; k++ {
				reps := make([]int, replicas)
				for r := range reps {
					reps[r] = rng.Intn(nodes)
				}
				jd.Tasks = append(jd.Tasks, TaskDemand{Task: k, Block: hdfs.BlockID(block), Nodes: reps})
				block++
			}
			ad.Jobs = append(ad.Jobs, jd)
		}
		demands = append(demands, ad)
	}
	return demands, idle
}

// warmRoundAllocs is the exact number of heap allocations one warm
// Session.Allocate round makes on the 1000-node MicroInstance: the plan's
// Assignments slice, which the caller keeps. Any other allocation on the
// pick/update chain is a regression; lower this pin when one is removed.
const warmRoundAllocs = 1

// TestMicroInstanceWarmRound pins the warm allocation round on the
// 1000-node microbenchmark instance. The warm-session plan must equal the
// frozen reference's byte for byte, and a warm round must make exactly
// warmRoundAllocs heap allocations. Allocation counts do not depend on the
// hardware, so the pin is exact. The race detector shrinks the instance to
// 60 nodes, since the reference allocator is too slow there at 1000; the
// warm round's allocation count is the same at both sizes.
func TestMicroInstanceWarmRound(t *testing.T) {
	nodes := 1000
	if race.Enabled {
		nodes = 60
	}
	demands, idle := MicroInstance(nodes, xrand.New(1))
	opts := DefaultOptions()
	want := AllocateReference(demands, idle, opts)
	sess := NewSession()
	got := sess.Allocate(demands, idle, opts)
	if len(want.Assignments) != len(got.Assignments) {
		t.Fatalf("plan length diverges: %d vs %d", len(got.Assignments), len(want.Assignments))
	}
	for i := range want.Assignments {
		if want.Assignments[i] != got.Assignments[i] {
			t.Fatalf("assignment %d diverges: %+v vs %+v", i, got.Assignments[i], want.Assignments[i])
		}
	}
	if n := testing.AllocsPerRun(20, func() { sess.Allocate(demands, idle, opts) }); n != warmRoundAllocs {
		t.Fatalf("warm Session.Allocate made %v allocs/round, want exactly %d", n, warmRoundAllocs)
	}
}
