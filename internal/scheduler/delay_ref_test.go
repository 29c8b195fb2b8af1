package scheduler

import (
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
)

// delayReference is the delay scheduler as it stood before the indexed
// postings, frozen as the oracle of the differential tests: every offer
// scans the whole queue once per locality level, probing the Locator at
// each step, and NextDeadline scans it again. Delay must pick the same task
// (or none) and report the same deadline after any operation sequence. Do
// not optimise it.
type delayReference struct {
	Loc  Locator
	Wait float64
	Hint func(*app.Task) (execID int, ok bool)

	queue []*app.Task
}

func (d *delayReference) Submit(tasks []*app.Task, now float64) {
	d.queue = append(d.queue, tasks...)
}

func (d *delayReference) Offer(e *cluster.Executor, now float64) *app.Task {
	node := e.Node.ID
	// Level 0: the manager suggested this very executor for the task.
	if d.Hint != nil {
		for i, t := range d.queue {
			if id, ok := d.Hint(t); ok && id == e.ID {
				return d.take(i)
			}
		}
	}
	// Level 1: node-local.
	for i, t := range d.queue {
		if localOn(d.Loc, t, node) {
			return d.take(i)
		}
	}
	// Level 2: tasks with no locality preference launch anywhere.
	for i, t := range d.queue {
		if !hasPreference(d.Loc, t) {
			return d.take(i)
		}
	}
	// Level 3: wait expired → accept any slot.
	for i, t := range d.queue {
		if now-t.ReadyAt >= d.Wait {
			return d.take(i)
		}
	}
	return nil
}

func (d *delayReference) take(i int) *app.Task {
	t := d.queue[i]
	d.queue = append(d.queue[:i], d.queue[i+1:]...)
	return t
}

func (d *delayReference) Pending() int { return len(d.queue) }

func (d *delayReference) PendingTasks() []*app.Task {
	return append([]*app.Task(nil), d.queue...)
}

func (d *delayReference) NextDeadline(now float64) (float64, bool) {
	earliest := math.Inf(1)
	for _, t := range d.queue {
		if !hasPreference(d.Loc, t) {
			continue
		}
		if dl := t.ReadyAt + d.Wait; dl > now && dl < earliest {
			earliest = dl
		}
	}
	if math.IsInf(earliest, 1) {
		return 0, false
	}
	return earliest, true
}
