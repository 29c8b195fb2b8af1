package experiments

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// SelectorRow is one replica-selection policy's outcome.
type SelectorRow struct {
	Selector string
	Manager  ManagerKind
	JCT      float64
	ReadSec  float64 // mean input read time
	Locality float64
}

// SelectorResult is ablation A10: how the source-replica choice for
// non-local reads affects the baseline and Custody. Custody makes most
// reads local, so it should be nearly insensitive to the policy, while the
// baseline's non-local reads benefit from smarter selection.
type SelectorResult struct{ Rows []SelectorRow }

// RunSelectors sweeps replica-selection policies under both managers.
func RunSelectors(opts Options) (SelectorResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.WordCount))
	var out SelectorResult
	mkSel := []func() hdfs.ReplicaSelector{
		func() hdfs.ReplicaSelector { return hdfs.RandomSelector{} },
		func() hdfs.ReplicaSelector { return hdfs.ClosestSelector{} },
		func() hdfs.ReplicaSelector { return hdfs.NewLeastLoadedSelector() },
	}
	for _, mk := range []ManagerKind{Standalone, Custody} {
		for _, ms := range mkSel {
			sel := ms()
			cfg := opts.config(NewManager(mk, opts.Seed))
			cfg.ReplicaSelection = sel
			col, err := driver.RunSchedule(cfg, sched)
			if err != nil {
				return out, err
			}
			reads := make([]float64, 0, len(col.Tasks))
			for _, t := range col.Tasks {
				if t.Input {
					reads = append(reads, t.ReadSec)
				}
			}
			out.Rows = append(out.Rows, SelectorRow{
				Selector: sel.Name(),
				Manager:  mk,
				JCT:      metrics.Summarize(col.JobCompletionTimes()).Mean,
				ReadSec:  metrics.Summarize(reads).Mean,
				Locality: metrics.Summarize(col.LocalityPerJob()).Mean,
			})
		}
	}
	return out, nil
}

// Render formats the selector ablation.
func (r SelectorResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A10 — replica selection for non-local reads (WordCount, 100 nodes)\n")
	fmt.Fprintf(&b, "%-10s %-14s %12s %10s %10s\n", "manager", "selector", "meanJCT(s)", "read(s)", "locality")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-14s %11.2f %9.3f %9.3f\n",
			row.Manager, row.Selector, row.JCT, row.ReadSec, row.Locality)
	}
	return b.String()
}
