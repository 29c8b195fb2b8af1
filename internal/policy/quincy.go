package policy

import (
	"math"

	"repro/internal/core"
	"repro/internal/maxflow"
	"repro/internal/mutant"
	"repro/internal/obsv"
)

// Quincy is a global min-cost-flow reallocator in the style of Quincy
// (Isard et al., SOSP'09), lifted from task granularity (the per-app
// scheduler in internal/scheduler) to executor granularity: one flow network
// covers every application and every idle executor, and the solver picks the
// cheapest joint executor→application assignment instead of serving
// applications one at a time.
//
// Network shape (node 0 = source, then one node per application, one per
// idle executor, then the sink):
//
//	source → app_i        cap = min(budget headroom, residual demand), cost 0
//	app_i  → exec_e       cap 1, cost −(1 + 2·min(localTasks(i,e), slots_e))
//	exec_e → sink         cap 1, cost 0
//
// A flow unit is one whole executor (the unit the budget σ_i counts). Edge
// costs are negated benefits, so MinCostFlowImproving — which augments only
// while paths improve the total — returns the maximum-benefit assignment of
// any cardinality: locality-rich placements are taken first and an
// executor is left unassigned only when no application can use it at all.
type Quincy struct{}

// Name implements Policy.
func (Quincy) Name() string { return "quincy" }

// Allocate implements Policy.
func (Quincy) Allocate(apps []core.AppDemand, idle []core.ExecInfo, opts core.Options) core.Plan {
	in := newInst(apps, idle, opts)
	apps, idle = in.apps, in.idle // canonical order, not input order
	if len(apps) == 0 || len(idle) == 0 {
		return in.finish()
	}
	nApps, nExecs := len(apps), len(idle)
	sink := 1 + nApps + nExecs
	g := maxflow.NewMinCostGraph(sink + 1)
	edgeOf := make([][]int, nApps) // app × exec → edge ID, -1 when absent
	for ai := range apps {
		edgeOf[ai] = make([]int, nExecs)
		for ei := range edgeOf[ai] {
			edgeOf[ai][ei] = -1
		}
		capacity := in.headroom(ai)
		if w := in.want(ai); capacity > w {
			capacity = w // never claim more executors than remaining demand
		}
		if capacity <= 0 {
			continue
		}
		g.AddEdge(0, 1+ai, float64(capacity), 0)
		for ei := range idle {
			local := 0
			for ti := range in.tasks[ai] {
				if localTo(in.tasks[ai][ti].td, idle[ei].Node) {
					local++
				}
			}
			if s := slotsOf(idle[ei]); local > s {
				local = s
			}
			cost := -float64(1 + 2*local)
			if mutant.Active == mutant.PolicyCostSign {
				cost = -cost // seeded bug: maximize cost; no path improves
			}
			edgeOf[ai][ei] = g.AddEdge(1+ai, 1+nApps+ei, 1, cost)
		}
	}
	for ei := range idle {
		g.AddEdge(1+nApps+ei, sink, 1, 0)
	}
	g.MinCostFlowImproving(0, sink, math.Inf(1))

	// Read the assignment back in deterministic (app, executor) order and
	// materialize slot-level grants: local tasks stored on the executor's
	// node first, then fill while residual demand remains.
	for ai := range apps {
		first := true
		for ei := range idle {
			if edgeOf[ai][ei] < 0 || g.Flow(edgeOf[ai][ei]) < 0.5 {
				continue
			}
			if first {
				in.decide(ai, obsv.PhaseLocality, -1)
				first = false
			}
			in.claim(ai, ei)
			in.serveExec(ai, ei)
		}
	}
	return in.finish()
}
