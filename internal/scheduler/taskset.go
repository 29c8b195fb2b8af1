package scheduler

import (
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
)

// DelayTaskSet is the Spark-faithful variant of delay scheduling: pending
// tasks are grouped into TaskSets (one per stage), processed in submission
// order, and each TaskSet carries its own locality level that degrades when
// no task has launched for Wait seconds and resets whenever a task launches
// (TaskSetManager.lastLaunchTime semantics). Compared to the flat Delay
// queue, a busy TaskSet that keeps launching locally never degrades to ANY,
// while an idle one degrades once and then backfills freely.
type DelayTaskSet struct {
	Loc  Locator
	Wait float64

	sets []*taskSet
}

type taskSet struct {
	stage      *app.Stage
	tasks      []*app.Task
	lastLaunch float64
}

// NewDelayTaskSet builds the per-TaskSet delay scheduler.
func NewDelayTaskSet(loc Locator, wait float64) *DelayTaskSet {
	if wait < 0 {
		wait = 0
	}
	return &DelayTaskSet{Loc: loc, Wait: wait}
}

// Name implements Scheduler.
func (d *DelayTaskSet) Name() string { return "delay-taskset" }

// Submit implements Scheduler: tasks are grouped by stage; a new stage
// starts a new TaskSet whose wait clock begins at submission.
func (d *DelayTaskSet) Submit(tasks []*app.Task, now float64) {
	for _, t := range tasks {
		var ts *taskSet
		for _, s := range d.sets {
			if s.stage == t.Stage {
				ts = s
				break
			}
		}
		if ts == nil {
			ts = &taskSet{stage: t.Stage, lastLaunch: now}
			d.sets = append(d.sets, ts)
		}
		ts.tasks = append(ts.tasks, t)
	}
}

// Offer implements Scheduler. TaskSets are visited in submission order; a
// node-local task launches at any time, a non-local one only once the
// TaskSet's level has degraded (no launch for Wait seconds).
func (d *DelayTaskSet) Offer(e *cluster.Executor, now float64) *app.Task {
	node := e.Node.ID
	// Pass 1: node-local (or no-preference) anywhere, FIFO by TaskSet.
	for _, ts := range d.sets {
		for i, t := range ts.tasks {
			if localOn(d.Loc, t, node) || !hasPreference(d.Loc, t) {
				return d.takeFrom(ts, i, now)
			}
		}
	}
	// Pass 2: degraded TaskSets accept any executor.
	for _, ts := range d.sets {
		if now-ts.lastLaunch < d.Wait {
			continue
		}
		if len(ts.tasks) > 0 {
			return d.takeFrom(ts, 0, now)
		}
	}
	return nil
}

func (d *DelayTaskSet) takeFrom(ts *taskSet, i int, now float64) *app.Task {
	t := ts.tasks[i]
	ts.tasks = append(ts.tasks[:i], ts.tasks[i+1:]...)
	ts.lastLaunch = now // every launch resets the TaskSet's wait clock
	d.compact()
	return t
}

func (d *DelayTaskSet) compact() {
	out := d.sets[:0]
	for _, ts := range d.sets {
		if len(ts.tasks) > 0 {
			out = append(out, ts)
		}
	}
	d.sets = out
}

// Pending implements Scheduler.
func (d *DelayTaskSet) Pending() int {
	n := 0
	for _, ts := range d.sets {
		n += len(ts.tasks)
	}
	return n
}

// PendingTasks implements Scheduler.
func (d *DelayTaskSet) PendingTasks() []*app.Task {
	var out []*app.Task
	for _, ts := range d.sets {
		out = append(out, ts.tasks...)
	}
	return out
}

// NextDeadline implements Scheduler: the earliest TaskSet degradation.
func (d *DelayTaskSet) NextDeadline(now float64) (float64, bool) {
	earliest := math.Inf(1)
	for _, ts := range d.sets {
		hasPref := false
		for _, t := range ts.tasks {
			if hasPreference(d.Loc, t) {
				hasPref = true
				break
			}
		}
		if !hasPref {
			continue
		}
		dl := ts.lastLaunch + d.Wait
		if dl > now && dl < earliest {
			earliest = dl
		}
	}
	if math.IsInf(earliest, 1) {
		return 0, false
	}
	return earliest, true
}
