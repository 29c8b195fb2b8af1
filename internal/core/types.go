// Package core implements Custody's data-aware resource-sharing algorithms
// (§III–§IV of the paper): the inter-application min-locality fairness rule
// (Algorithm 1), the intra-application priority allocation (Algorithm 2),
// and the exact/fractional comparators used in the theoretical analysis.
//
// The package is pure: it operates on snapshots of demand and idle
// executors and returns an allocation plan. The cluster manager
// (internal/manager) is responsible for applying plans to cluster state.
package core

import (
	"repro/internal/hdfs"
	"repro/internal/obsv"
)

// TaskDemand is one input task's data requirement: the block it reads and
// the nodes currently storing replicas of that block (the NameNode's answer,
// §IV-C).
type TaskDemand struct {
	Task  int // caller-defined task identifier
	Block hdfs.BlockID
	Nodes []int
	// Fallback marks Nodes as rack-local stand-ins rather than replica
	// holders: the NameNode's advertised holders were all unusable and the
	// preference degraded (FallbackNodes case 2). Purely provenance — the
	// allocator treats fallback nodes exactly like replica holders — but it
	// distinguishes local-block from rack-fallback grants in obsv.
	Fallback bool
	// Warm, when non-nil, parallels Nodes: Warm[i] marks Nodes[i] as
	// holding the block in its block cache when the demand was built. Like
	// Fallback it is purely provenance — the allocator's choice is
	// unchanged — but a grant landing on a warm node is tagged cache-hit
	// instead of local-block in obsv. Nil whenever the cache tier is
	// disabled (the default), which keeps the demand build allocation-free.
	Warm []bool
}

// warmOn reports whether the demand marked node as cache-warm.
//
//custody:noalloc
func (t *TaskDemand) warmOn(node int) bool {
	if t.Warm == nil {
		return false
	}
	for i, n := range t.Nodes {
		if n == node {
			return i < len(t.Warm) && t.Warm[i]
		}
	}
	return false
}

// JobDemand is one job's set of input-task demands. Jobs with fewer
// remaining input tasks get higher priority (Algorithm 2, §IV-B).
type JobDemand struct {
	Job   int // caller-defined job identifier
	Tasks []TaskDemand
}

// AppDemand is everything the allocator needs to know about one application.
type AppDemand struct {
	App    int
	Budget int // σ_i: total executors the app may hold
	Held   int // ζ_i: executors currently held (busy, not reallocatable)

	// Jobs are the app's pending jobs with unsatisfied input tasks.
	Jobs []JobDemand

	// ExtraTasks counts pending tasks with no data preference (e.g.,
	// shuffle tasks waiting for a slot). They carry no locality demand but
	// justify executors in the fill phase.
	ExtraTasks int

	// History feeds the fairness metric: locality already achieved by
	// finished or running jobs ("the percentage of local jobs it has
	// already achieved", Algorithm 1).
	LocalJobs, TotalJobs   int
	LocalTasks, TotalTasks int
}

// ExecInfo describes an idle executor available for allocation. Slots is
// its concurrent task capacity (0 is treated as 1): the paper's analytical
// model runs one task per executor (§III-A), while the testbed's executors
// have four cores each and therefore serve four tasks at once. A multi-slot
// executor can satisfy the locality of up to Slots tasks of the single
// application it is allocated to, and counts once against the executor
// budget σ_i.
type ExecInfo struct {
	ID    int
	Node  int
	Slots int
}

func (e ExecInfo) slots() int {
	if e.Slots <= 0 {
		return 1
	}
	return e.Slots
}

// Assignment allocates one idle executor to an application, optionally in
// service of a specific task (Local=true when the executor's node stores the
// task's block).
type Assignment struct {
	App   int
	Exec  int
	Node  int
	Job   int
	Task  int
	Block hdfs.BlockID
	Local bool
}

// Plan is the output of an allocation round.
type Plan struct {
	Assignments []Assignment
}

// ByApp groups the plan's executor IDs by application.
func (p Plan) ByApp() map[int][]int {
	out := map[int][]int{}
	for _, a := range p.Assignments {
		out[a.App] = append(out[a.App], a.Exec)
	}
	return out
}

// LocalCount returns the number of locality-carrying assignments.
func (p Plan) LocalCount() int {
	n := 0
	for _, a := range p.Assignments {
		if a.Local {
			n++
		}
	}
	return n
}

// Options tunes the allocator.
type Options struct {
	// FillToBudget enables Algorithm 2's final loop (lines 17–20): after
	// locality demands are met, leftover executors are handed out so
	// non-local tasks still have slots to run on. Unlike a literal reading
	// of the pseudocode — which would let the least-localized application
	// absorb the whole pool before anyone else allocates — the fill phase
	// here runs after *all* applications' locality passes and hands out at
	// most one executor per (app, pending task), preserving the algorithm's
	// intent without the hogging pathology (see DESIGN.md).
	FillToBudget bool
	// Intra selects the intra-application strategy; nil means Priority
	// (the paper's Algorithm 2).
	Intra IntraStrategy
	// Observer, when non-nil, receives decision provenance: one
	// obsv.Decision per Algorithm 1 pick and one obsv.Grant per executor
	// slot granted. The allocator's hot path stays allocation-free either
	// way; with a nil Observer the instrumentation is a single branch.
	Observer obsv.AllocObserver
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{FillToBudget: true}
}
