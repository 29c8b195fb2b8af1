package experiments

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// YARN is the YARN-like dynamic-pool manager (§VII), available to the
// extension ablations.
const YARN ManagerKind = "yarn"

// ManagerRow is one row of the manager grand comparison.
type ManagerRow struct {
	Manager     ManagerKind
	Locality    float64
	LocalJobs   float64
	JCT         float64
	Delay       float64
	Utilization float64
	Migrations  int
}

// ManagersResult is ablation A7: all four manager families on one workload,
// including cluster utilization from the execution trace.
type ManagersResult struct{ Rows []ManagerRow }

// RunManagers compares Spark-standalone, YARN-pool, Mesos-offer, and
// Custody on the Sort workload.
func RunManagers(opts Options) (ManagersResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.Sort))
	var out ManagersResult
	for _, mk := range []ManagerKind{Standalone, YARN, Offer, Custody} {
		rec := trace.NewRecorder()
		cfg := opts.config(NewManager(mk, opts.Seed))
		cfg.Tracer = rec
		col, err := driver.RunSchedule(cfg, sched)
		if err != nil {
			return out, err
		}
		slots := cfg.Nodes * cfg.ExecutorsPerNode * cfg.SlotsPerExecutor
		out.Rows = append(out.Rows, ManagerRow{
			Manager:     mk,
			Locality:    metrics.Summarize(col.LocalityPerJob()).Mean,
			LocalJobs:   col.PctLocalJobs(),
			JCT:         metrics.Summarize(col.JobCompletionTimes()).Mean,
			Delay:       metrics.Summarize(col.SchedulerDelays()).Mean,
			Utilization: rec.Utilization(slots),
			Migrations:  rec.MigrationCount(),
		})
	}
	return out, nil
}

// Render formats the manager comparison.
func (r ManagersResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A7 — cluster-manager families (Sort, 100 nodes)\n")
	fmt.Fprintf(&b, "%-10s %10s %11s %12s %10s %12s %11s\n",
		"manager", "locality", "localJobs", "meanJCT(s)", "delay(s)", "utilization", "migrations")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9.3f %10.3f %11.2f %9.3f %11.3f %11d\n",
			row.Manager, row.Locality, row.LocalJobs, row.JCT, row.Delay, row.Utilization, row.Migrations)
	}
	return b.String()
}

// SchedulerRow is one row of the task-scheduler comparison.
type SchedulerRow struct {
	Scheduler driver.SchedulerKind
	Manager   ManagerKind
	Locality  float64
	JCT       float64
	Delay     float64
}

// SchedulersResult is ablation A8: task schedulers under both managers —
// Custody "essentially complements task schedulers by maximizing the upper
// bound locality that task schedulers can achieve" (§VII).
type SchedulersResult struct{ Rows []SchedulerRow }

// RunSchedulers sweeps task schedulers × managers on WordCount.
func RunSchedulers(opts Options) (SchedulersResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.WordCount))
	var out SchedulersResult
	kinds := []driver.SchedulerKind{
		driver.SchedFIFO, driver.SchedDelay, driver.SchedDelayTaskSet, driver.SchedQuincy,
	}
	for _, sk := range kinds {
		for _, mk := range []ManagerKind{Standalone, Custody} {
			cfg := opts.config(NewManager(mk, opts.Seed))
			cfg.Scheduler = sk
			col, err := driver.RunSchedule(cfg, sched)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, SchedulerRow{
				Scheduler: sk,
				Manager:   mk,
				Locality:  metrics.Summarize(col.LocalityPerJob()).Mean,
				JCT:       metrics.Summarize(col.JobCompletionTimes()).Mean,
				Delay:     metrics.Summarize(col.SchedulerDelays()).Mean,
			})
		}
	}
	return out, nil
}

// Render formats the scheduler comparison.
func (r SchedulersResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A8 — task schedulers × managers (WordCount, 100 nodes)\n")
	fmt.Fprintf(&b, "%-15s %-10s %10s %12s %10s\n", "scheduler", "manager", "locality", "meanJCT(s)", "delay(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-15s %-10s %9.3f %11.2f %9.3f\n",
			row.Scheduler, row.Manager, row.Locality, row.JCT, row.Delay)
	}
	return b.String()
}

// FailureRow is one row of the failure-resilience experiment.
type FailureRow struct {
	Manager  ManagerKind
	Failures int
	JCT      float64
	Locality float64
	Retried  int // tasks with more than one attempt
}

// FailureResult is ablation A9: node failures mid-run.
type FailureResult struct{ Rows []FailureRow }

// RunFailures injects node failures during the Sort workload and measures
// how each manager's completion times and locality degrade.
func RunFailures(opts Options) (FailureResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.Sort))
	var out FailureResult
	for _, failures := range []int{0, 3} {
		for _, mk := range []ManagerKind{Standalone, Custody} {
			cfg := opts.config(NewManager(mk, opts.Seed))
			d, err := driver.NewScheduled(cfg, sched)
			if err != nil {
				return out, err
			}
			horizon := sched.Horizon()
			for k := 0; k < failures; k++ {
				at := horizon * float64(k+1) / float64(failures+1)
				d.FailNodeAt(at, (k*17+3)%cfg.Nodes)
			}
			col := d.Run()
			retried := 0
			for _, h := range d.Apps() {
				for _, j := range h.Jobs {
					for _, s := range j.Stages {
						for _, task := range s.Tasks {
							if task.Attempts > 1 {
								retried++
							}
						}
					}
				}
			}
			out.Rows = append(out.Rows, FailureRow{
				Manager:  mk,
				Failures: failures,
				JCT:      metrics.Summarize(col.JobCompletionTimes()).Mean,
				Locality: metrics.Summarize(col.LocalityPerJob()).Mean,
				Retried:  retried,
			})
		}
	}
	return out, nil
}

// Render formats the failure experiment.
func (r FailureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A9 — node failures mid-run (Sort, 100 nodes)\n")
	fmt.Fprintf(&b, "%-10s %9s %12s %10s %9s\n", "manager", "failures", "meanJCT(s)", "locality", "retried")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9d %11.2f %9.3f %9d\n",
			row.Manager, row.Failures, row.JCT, row.Locality, row.Retried)
	}
	return b.String()
}
