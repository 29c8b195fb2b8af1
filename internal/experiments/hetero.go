package experiments

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// HeteroRow is one heterogeneity configuration's outcome.
type HeteroRow struct {
	Manager     ManagerKind
	Slow        bool // 20% of nodes at 1/3 speed
	Speculation bool
	JCT         float64
	P95         float64
	Locality    float64
}

// HeteroResult is ablation A11: persistent stragglers from heterogeneous
// hardware, with and without speculative execution, under both managers.
type HeteroResult struct{ Rows []HeteroRow }

// RunHetero measures how hardware heterogeneity erodes each manager's gains
// and how much speculation recovers.
func RunHetero(opts Options) (HeteroResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.Sort))
	var out HeteroResult
	for _, slow := range []bool{false, true} {
		for _, mk := range []ManagerKind{Standalone, Custody} {
			specs := []bool{false}
			if slow {
				specs = []bool{false, true}
			}
			for _, specOn := range specs {
				cfg := opts.config(NewManager(mk, opts.Seed))
				if slow {
					cfg.SlowNodeFraction = 0.2
				}
				cfg.Speculation = specOn
				col, err := driver.RunSchedule(cfg, sched)
				if err != nil {
					return out, err
				}
				s := metrics.Summarize(col.JobCompletionTimes())
				out.Rows = append(out.Rows, HeteroRow{
					Manager: mk, Slow: slow, Speculation: specOn,
					JCT: s.Mean, P95: s.P95,
					Locality: metrics.Summarize(col.LocalityPerJob()).Mean,
				})
			}
		}
	}
	return out, nil
}

// Render formats the heterogeneity ablation.
func (r HeteroResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A11 — heterogeneous nodes (20%% at 1/3 speed), Sort, 100 nodes\n")
	fmt.Fprintf(&b, "%-10s %-6s %-6s %12s %10s %10s\n", "manager", "slow", "spec", "meanJCT(s)", "p95(s)", "locality")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-6v %-6v %11.2f %9.2f %9.3f\n",
			row.Manager, row.Slow, row.Speculation, row.JCT, row.P95, row.Locality)
	}
	return b.String()
}
