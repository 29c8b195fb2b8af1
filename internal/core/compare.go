package core

import "repro/internal/maxflow"

// IntraObjective is the §IV-B objective value of an intra-application
// allocation: Σ 1/µ_ij over locally-satisfied tasks, i.e. the (fractional)
// number of local jobs when each local task contributes 1/µ of a job.
func IntraObjective(jobs []JobDemand, localTasksPerJob map[int]int) float64 {
	total := 0.0
	for _, j := range jobs {
		if len(j.Tasks) == 0 {
			continue
		}
		total += float64(localTasksPerJob[j.Job]) / float64(len(j.Tasks))
	}
	return total
}

// GreedyIntraObjective runs Algorithm 2's greedy (as a standalone budgeted
// matching, without the inter-app interleaving) and returns its objective
// value and the number of fully local jobs. Used by the ablation comparing
// the 2-approximation against the exact optimum.
func GreedyIntraObjective(jobs []JobDemand, idle []ExecInfo, budget int) (objective float64, localJobs int) {
	apps := []AppDemand{{App: 0, Budget: budget, Jobs: jobs}}
	plan := Allocate(apps, idle, Options{FillToBudget: false})
	perJob := map[int]int{}
	for _, a := range plan.Assignments {
		if a.Local {
			perJob[a.Job]++
		}
	}
	for _, j := range jobs {
		if len(j.Tasks) > 0 && perJob[j.Job] == len(j.Tasks) {
			localJobs++
		}
	}
	return IntraObjective(jobs, perJob), localJobs
}

// OptimalIntraObjective solves the constrained bipartite matching problem of
// Eq. (9)–(10) exactly with a min-cost flow of value at most budget: tasks on
// the left, idle executors on the right, an edge of weight 1/µ_ij wherever
// the executor's node stores the task's block. Successive shortest paths
// are pushed only while they improve the objective, so the result is the
// maximum-weight matching of cardinality ≤ budget.
func OptimalIntraObjective(jobs []JobDemand, idle []ExecInfo, budget int) float64 {
	type taskRef struct {
		weight float64
		nodes  []int
	}
	var tasks []taskRef
	for _, j := range jobs {
		if len(j.Tasks) == 0 {
			continue
		}
		w := 1.0 / float64(len(j.Tasks))
		for _, t := range j.Tasks {
			tasks = append(tasks, taskRef{weight: w, nodes: t.Nodes})
		}
	}
	if len(tasks) == 0 || len(idle) == 0 || budget <= 0 {
		return 0
	}
	execsByNode := map[int][]int{} // node → graph indices of executors
	nTasks := len(tasks)
	// Node layout: 0 source, 1..nTasks tasks, then executors, then sink.
	execBase := 1 + nTasks
	sink := execBase + len(idle)
	g := maxflow.NewMinCostGraph(sink + 1)
	for i, e := range idle {
		execsByNode[e.Node] = append(execsByNode[e.Node], execBase+i)
		g.AddEdge(execBase+i, sink, 1, 0)
	}
	for i, t := range tasks {
		g.AddEdge(0, 1+i, 1, 0)
		seen := map[int]bool{}
		for _, n := range t.nodes {
			if seen[n] {
				continue
			}
			seen[n] = true
			for _, en := range execsByNode[n] {
				g.AddEdge(1+i, en, 1, -t.weight)
			}
		}
	}
	_, cost := g.MinCostFlowImproving(0, sink, float64(budget))
	return -cost
}

// FractionalMaxMin computes the LP-relaxed maximum concurrent flow bound on
// the max-min fraction of local tasks across applications (§III-B): no
// allocation, integral or not, can give every application a larger fraction
// simultaneously.
func FractionalMaxMin(apps []AppDemand, idle []ExecInfo, tol float64) float64 {
	execIdx := map[int]int{}
	for i, e := range idle {
		execIdx[e.ID] = i
	}
	execsByNode := map[int][]int{}
	for i, e := range idle {
		execsByNode[e.Node] = append(execsByNode[e.Node], i)
	}
	cands := make([][][]int, len(apps))
	for ai, a := range apps {
		for _, j := range a.Jobs {
			for _, t := range j.Tasks {
				var c []int
				seen := map[int]bool{}
				for _, n := range t.Nodes {
					if seen[n] {
						continue
					}
					seen[n] = true
					c = append(c, execsByNode[n]...)
				}
				cands[ai] = append(cands[ai], c)
			}
		}
	}
	li := maxflow.LocalityInstance{Executors: len(idle), Candidates: cands}
	return li.FractionalUpperBound(tol)
}
