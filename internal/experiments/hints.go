package experiments

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// HintRow is one scheduling-suggestion configuration's outcome.
type HintRow struct {
	Hints    bool
	Locality float64
	JCT      float64
	Delay    float64
}

// HintsResult is ablation A12: Custody's scheduling suggestions (§V). The
// paper submits them but does not make applications follow them; this
// ablation measures what following them is worth.
type HintsResult struct{ Rows []HintRow }

// RunHints compares Custody with and without honored scheduling
// suggestions on the Sort workload.
func RunHints(opts Options) (HintsResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.Sort))
	var out HintsResult
	for _, hints := range []bool{false, true} {
		mgr := manager.NewCustody()
		mgr.EmitHints = hints
		col, err := driver.RunSchedule(opts.config(mgr), sched)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, HintRow{
			Hints:    hints,
			Locality: metrics.Summarize(col.LocalityPerJob()).Mean,
			JCT:      metrics.Summarize(col.JobCompletionTimes()).Mean,
			Delay:    metrics.Summarize(col.SchedulerDelays()).Mean,
		})
	}
	return out, nil
}

// Render formats the hints ablation.
func (r HintsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A12 — Custody scheduling suggestions (§V), Sort, 100 nodes\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %10s\n", "hints", "locality", "meanJCT(s)", "delay(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8v %9.3f %11.2f %9.3f\n", row.Hints, row.Locality, row.JCT, row.Delay)
	}
	return b.String()
}
