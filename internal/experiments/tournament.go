package experiments

import (
	"fmt"
	"strings"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TournamentRow is one (policy, workload, level) cell of the policy
// tournament: the custody manager with one pluggable allocation policy,
// measured under one workload and fault intensity.
type TournamentRow struct {
	Policy     string
	Workload   workload.Kind
	Level      string
	JobsDone   int
	JobsTotal  int
	JCT        float64
	Locality   float64
	Fairness   float64 // Jain index over per-app locality
	Violations int     // invariant-audit failures (must be 0)
}

// TournamentResult is ablation A15: every allocation policy under every
// workload and fault level, same cluster, same seed.
type TournamentResult struct{ Rows []TournamentRow }

// tournamentGrid picks the sweep axes. The quick grid keeps one workload
// and the fault-free/medium endpoints so CI finishes in seconds; the full
// grid crosses all policies with all workloads and all chaos levels.
func tournamentGrid(quick bool) (kinds []workload.Kind, levels []ChaosLevel) {
	if quick {
		return []workload.Kind{workload.Sort},
			[]ChaosLevel{ChaosLevels[0], ChaosLevels[2]}
	}
	return []workload.Kind{workload.WordCount, workload.Sort, workload.PageRank}, ChaosLevels
}

// RunTournament runs ablation A15, the policy tournament: the custody
// manager's four allocation policies (Algorithm 1+2, Quincy-style min-cost
// flow, weighted fair, locality-aware matching) under each workload × fault
// level, with resilience on and the invariant auditor running after every
// fault. Every cell must complete all jobs with zero audit violations —
// the tournament ranks policies on JCT, locality, and Jain fairness, it
// does not tolerate correctness regressions from any of them.
func RunTournament(opts Options) (TournamentResult, error) {
	opts = opts.normalize()
	kinds, levels := tournamentGrid(opts.Quick)
	var out TournamentResult
	for _, kind := range kinds {
		sched := opts.schedule(workload.DefaultSpec(kind))
		for _, level := range levels {
			for _, pol := range policy.Names() {
				mgr := manager.NewCustody()
				if err := mgr.SetPolicy(pol); err != nil {
					return out, err
				}
				col, rep, err := runChaos(opts, opts.config(mgr), sched, level)
				if err != nil {
					return out, err
				}
				out.Rows = append(out.Rows, TournamentRow{
					Policy:     pol,
					Workload:   kind,
					Level:      level.Name,
					JobsDone:   len(col.Jobs),
					JobsTotal:  len(sched.Subs),
					JCT:        metrics.Summarize(col.JobCompletionTimes()).Mean,
					Locality:   metrics.Summarize(col.LocalityPerJob()).Mean,
					Fairness:   col.JainFairness(),
					Violations: len(rep.Violations),
				})
			}
		}
	}
	return out, nil
}

// Render formats the tournament grid.
func (r TournamentResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A15 — policy tournament: allocation policies × workload × fault level\n")
	fmt.Fprintf(&b, "%-10s %-10s %-8s %9s %12s %9s %9s %11s\n",
		"policy", "workload", "level", "jobs", "meanJCT(s)", "locality", "fairness", "violations")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-10s %-8s %5d/%-3d %11.2f %9.3f %9.3f %11d\n",
			row.Policy, row.Workload, row.Level, row.JobsDone, row.JobsTotal,
			row.JCT, row.Locality, row.Fairness, row.Violations)
	}
	return b.String()
}
