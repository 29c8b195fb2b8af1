package driver

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunSchedule executes a workload schedule end to end under the configured
// manager and returns the collected metrics. The same schedule replayed with
// a different Config.Manager is the paper's comparison methodology (§VI-A2).
func RunSchedule(cfg Config, sched workload.Schedule) (*metrics.Collector, error) {
	d, err := NewScheduled(cfg, sched)
	if err != nil {
		return nil, err
	}
	return d.Run(), nil
}

// NewScheduled builds a started driver with the schedule's input files
// preloaded, its applications registered and every submission queued, ready
// for Run. Callers that read the driver's layers after the run (the engine,
// the fabric) use it in place of RunSchedule.
func NewScheduled(cfg Config, sched workload.Schedule) (*Driver, error) {
	d := New(cfg)
	files := make([]*hdfs.File, len(sched.Files))
	for i, fs := range sched.Files {
		f, err := d.CreateInput(fs.Name, fs.Size)
		if err != nil {
			return nil, fmt.Errorf("driver: preloading %s: %w", fs.Name, err)
		}
		files[i] = f
	}
	apps := make([]*app.Application, sched.Spec.Apps)
	for i := range apps {
		apps[i] = d.RegisterApp(fmt.Sprintf("%s-app%d", sched.Spec.Kind, i))
	}
	d.Start()
	for i, sub := range sched.Subs {
		j := workload.BuildJob(sched.Spec.Kind, i+1, files[sub.FileIdx])
		d.SubmitJobAt(sub.At, apps[sub.App], j)
	}
	return d, nil
}
