package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ChaosLevel names a fault intensity in the chaos sweep.
type ChaosLevel struct {
	Name  string
	Scale float64 // multiplier on chaos.DefaultProfile fault counts
}

// ChaosLevels is the sweep's intensity axis: a fault-free control, then
// increasing multiples of the mixed default profile.
var ChaosLevels = []ChaosLevel{
	{"none", 0},
	{"low", 1},
	{"medium", 2},
	{"high", 4},
}

// ChaosRow is one (level, manager) measurement of the chaos experiment.
type ChaosRow struct {
	Level      string
	Manager    ManagerKind
	Faults     int // faults applied (idempotency noops excluded)
	JobsDone   int
	JobsTotal  int
	JCT        float64
	Locality   float64
	Retries    int     // task attempts re-queued after a fault
	Blacklists int     // node exclusion events
	Recovery   float64 // mean seconds from fault to re-launch of an interrupted task
	Violations int     // invariant-audit failures (must be 0)
}

// ChaosResult is ablation A13: both managers under escalating fault rates.
type ChaosResult struct{ Rows []ChaosRow }

// RunChaos runs the Sort workload under increasing fault intensity for the
// baseline and Custody, with the resilience layer enabled and the invariant
// auditor running after every fault application and reversal. Degradation
// must stay bounded: every job completes at every level and no audit
// violation occurs — the sweep measures the cost (JCT, locality, retries),
// not survival.
func RunChaos(opts Options) (ChaosResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.Sort))
	var out ChaosResult
	for _, level := range ChaosLevels {
		for _, mk := range []ManagerKind{Standalone, Custody} {
			col, rep, err := runChaos(opts, opts.config(NewManager(mk, opts.Seed)), sched, level)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, ChaosRow{
				Level:      level.Name,
				Manager:    mk,
				Faults:     rep.Applied,
				JobsDone:   len(col.Jobs),
				JobsTotal:  len(sched.Subs),
				JCT:        metrics.Summarize(col.JobCompletionTimes()).Mean,
				Locality:   metrics.Summarize(col.LocalityPerJob()).Mean,
				Retries:    col.TaskRetries,
				Blacklists: col.BlacklistEvents,
				Recovery:   col.MeanRecoverySec(),
				Violations: len(rep.Violations),
			})
		}
	}
	return out, nil
}

// runChaos runs sched on cfg with resilience on, under level's multiple of
// the default fault profile. The plan is drawn from the seed's "chaos-plan"
// fork and injected with the invariant audit on. Quick runs shrink the
// cluster to 16 nodes.
func runChaos(opts Options, cfg driver.Config, sched workload.Schedule, level ChaosLevel) (*metrics.Collector, *chaos.Report, error) {
	cfg.EnableResilience()
	if opts.Quick {
		cfg.Nodes = 16
		cfg.RackSize = 4
	}
	d, err := driver.NewScheduled(cfg, sched)
	if err != nil {
		return nil, nil, err
	}
	profile := chaos.DefaultProfile().Scale(level.Scale)
	plan := chaos.Plan(profile, sched.Horizon(), cfg.Nodes, cfg.Nodes*cfg.ExecutorsPerNode,
		xrand.New(opts.Seed).Fork("chaos-plan"))
	rep := chaos.Inject(d, plan, true)
	return d.Run(), rep, nil
}

// Render formats the chaos sweep.
func (r ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A13 — chaos sweep: escalating faults, resilience on (Sort)\n")
	fmt.Fprintf(&b, "%-8s %-10s %7s %9s %12s %9s %8s %11s %12s %11s\n",
		"level", "manager", "faults", "jobs", "meanJCT(s)", "locality", "retries", "blacklists", "recovery(s)", "violations")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-10s %7d %5d/%-3d %11.2f %8.3f %8d %11d %12.2f %11d\n",
			row.Level, row.Manager, row.Faults, row.JobsDone, row.JobsTotal,
			row.JCT, row.Locality, row.Retries, row.Blacklists, row.Recovery, row.Violations)
	}
	return b.String()
}
