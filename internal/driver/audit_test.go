package driver

import (
	"strings"
	"testing"

	"repro/internal/app"
)

// midStorm returns a resilient FIFO-scheduled driver stopped mid-run with
// done, running, queued and backoff tasks all present: it steps until a
// task is done while others run and wait in a queue, then crashes an
// executor that runs one, whose tasks go into backoff.
func midStorm(t *testing.T) *Driver {
	t.Helper()
	cfg := smallConfig(custodyMgr())
	cfg.Scheduler = SchedFIFO
	cfg.EnableResilience()
	d, err := NewScheduled(cfg, failureSchedule(13))
	if err != nil {
		t.Fatal(err)
	}
	for d.eng.Step() {
		if d.tally[app.TaskDone] == 0 || d.tally[app.TaskRunning] < 2 || d.pendingTasks() == 0 {
			continue
		}
		d.InjectExecutorFail(d.running[d.runningTasksSorted()[0]][0].exec.ID)
		if len(d.backoff) == 0 || d.pendingTasks() == 0 || d.tally[app.TaskRunning] == 0 {
			continue
		}
		if err := d.Audit(); err != nil {
			t.Fatalf("clean mid-storm state fails the audit: %v", err)
		}
		return d
	}
	t.Fatal("the run never reached a state with done, running, queued and backoff tasks")
	return nil
}

// pendingTasks counts the tasks queued with every application's scheduler.
func (d *Driver) pendingTasks() int {
	n := 0
	for _, a := range d.apps {
		n += d.scheds[a.ID].Pending()
	}
	return n
}

// firstTask returns the first task, in deterministic order, of a submitted
// job that satisfies ok.
func (d *Driver) firstTask(t *testing.T, ok func(*app.Task) bool) *app.Task {
	t.Helper()
	for _, a := range d.apps {
		for _, j := range a.Jobs {
			for _, s := range j.Stages {
				for _, task := range s.Tasks {
					if ok(task) {
						return task
					}
				}
			}
		}
	}
	t.Fatal("no task matches")
	return nil
}

// queuedTask returns the first task queued with its application's scheduler.
func (d *Driver) queuedTask() *app.Task {
	for _, a := range d.apps {
		if ts := d.scheds[a.ID].PendingTasks(); len(ts) > 0 {
			return ts[0]
		}
	}
	return nil
}

// TestAuditReportsCorruptedTasks corrupts a clean mid-storm state in each
// way task conservation forbids and requires the live check to fail and
// Audit to report it. A ready task queued twice, or queued while in
// backoff, is the "exactly one of" rule that the walk once let through.
func TestAuditReportsCorruptedTasks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, d *Driver)
		want    string
	}{
		{"running-task-dropped", func(t *testing.T, d *Driver) {
			delete(d.running, d.runningTasksSorted()[0])
		}, "running with no live attempt"},
		{"done-task-in-backoff", func(t *testing.T, d *Driver) {
			done := d.firstTask(t, func(x *app.Task) bool { return x.State == app.TaskDone })
			d.backoff[done] = d.eng.Schedule(100, func() {})
		}, "done but live=0 queued=false backoff=true"},
		{"ready-task-dequeued", func(t *testing.T, d *Driver) {
			q := d.queuedTask()
			if got := d.scheds[q.Job.App.ID].Offer(d.cl.Executor(0), d.eng.Now()); got != q {
				t.Fatalf("FIFO offer took %v, want %v", got, q)
			}
		}, "ready but neither queued nor in backoff"},
		{"live-attempt-on-failed-executor", func(t *testing.T, d *Driver) {
			d.cl.FailExecutor(d.running[d.runningTasksSorted()[0]][0].exec)
		}, "has a live attempt on dead executor"},
		{"ready-task-queued-twice", func(t *testing.T, d *Driver) {
			q := d.queuedTask()
			d.scheds[q.Job.App.ID].Submit([]*app.Task{q}, d.eng.Now())
		}, "queued 2 times and backoff=false"},
		{"ready-task-queued-and-in-backoff", func(t *testing.T, d *Driver) {
			b := d.firstTask(t, func(x *app.Task) bool { _, ok := d.backoff[x]; return ok })
			d.scheds[b.Job.App.ID].Submit([]*app.Task{b}, d.eng.Now())
		}, "queued 1 times and backoff=true"},
		{"ready-task-queued-with-another-application", func(t *testing.T, d *Driver) {
			q := d.queuedTask()
			d.scheds[1-q.Job.App.ID].Submit([]*app.Task{q}, d.eng.Now())
		}, "queued with application"},
		{"ready-tally-plus-one", func(t *testing.T, d *Driver) {
			d.tally[app.TaskReady]++
		}, "task tally"},
		{"running-tally-minus-one", func(t *testing.T, d *Driver) {
			d.tally[app.TaskRunning]--
		}, "task tally"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := midStorm(t)
			tc.corrupt(t, d)
			if d.liveTasksConserved() {
				t.Error("the live check passed a corrupted state")
			}
			err := d.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit() = %v, want a violation containing %q", err, tc.want)
			}
		})
	}
}
