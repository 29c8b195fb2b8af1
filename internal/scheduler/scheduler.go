// Package scheduler implements the intra-application task schedulers that
// place ready tasks onto the executors the cluster manager has allocated.
//
// All experiments in the paper run Spark's delay scheduling unchanged on
// both sides (§V: "all the applications use the standard delay scheduling of
// Spark to accept resource offers and schedule tasks"), so Delay is the
// default here. FIFO and LocalityHard (Sparrow-like hard constraints, §VII)
// are provided as comparators.
package scheduler

import (
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
)

// Locator answers block-location queries; satisfied by *hdfs.NameNode.
// ReplicaOn and HasReplica answer what Locations would, without building the
// list: they are the per-offer probes.
type Locator interface {
	Locations(hdfs.BlockID) []int
	// ReplicaOn reports whether Locations(id) names node.
	ReplicaOn(id hdfs.BlockID, node int) bool
	// HasReplica reports whether Locations(id) is non-empty.
	HasReplica(id hdfs.BlockID) bool
}

// RackLocator additionally answers node→rack queries; *hdfs.NameNode
// satisfies it. The Quincy scheduler prices rack locality with it.
type RackLocator interface {
	Locator
	Rack(node int) int
}

// Scheduler is an application-side task scheduler. The driver offers idle
// executors; the scheduler picks a pending task or declines.
type Scheduler interface {
	Name() string
	// Submit adds ready tasks to the pending queue.
	Submit(tasks []*app.Task, now float64)
	// Offer proposes an idle executor. The scheduler returns the task to
	// launch on it, or nil to decline the offer.
	Offer(e *cluster.Executor, now float64) *app.Task
	// Pending returns the number of queued tasks.
	Pending() int
	// PendingTasks returns the queued tasks in FIFO order.
	PendingTasks() []*app.Task
	// NextDeadline returns the earliest future time at which an offer that
	// is currently declined could be accepted (locality-wait expiry), and
	// whether such a deadline exists.
	NextDeadline(now float64) (float64, bool)
	// Remove withdraws a pending task (e.g., on speculative completion);
	// reports whether the task was queued.
	Remove(t *app.Task) bool
}

// localOn reports whether one of the task's input-block replicas lives on
// the node.
func localOn(loc Locator, t *app.Task, node int) bool {
	return t.IsInput() && loc.ReplicaOn(t.Block, node)
}

// hasPreference reports whether the task constrains placement at all: input
// tasks with at least one live replica do, everything else launches anywhere
// immediately (Spark's "no-pref"/ANY level).
func hasPreference(loc Locator, t *app.Task) bool {
	return t.IsInput() && loc.HasReplica(t.Block)
}

// Delay implements delay scheduling (Zaharia et al., EuroSys'10; Spark's
// spark.locality.wait): a task waits up to Wait seconds for an offer from a
// node storing its input before accepting any executor (node → any, the
// paper's measured configuration).
type Delay struct {
	Loc  Locator
	Wait float64 // seconds; Spark default 3.0
	// Hint optionally returns the manager's scheduling suggestion for a
	// task (the executor Custody allocated with it in mind, §V). A pending
	// task hinted to the offered executor is taken before anything else;
	// nil disables suggestions.
	Hint func(*app.Task) (execID int, ok bool)

	queue []*app.Task
}

// DefaultWait is Spark's spark.locality.wait default.
const DefaultWait = 3.0

// NewDelay builds a delay scheduler with the given locality wait.
func NewDelay(loc Locator, wait float64) *Delay {
	if wait < 0 {
		wait = 0
	}
	return &Delay{Loc: loc, Wait: wait}
}

// Name implements Scheduler.
func (d *Delay) Name() string { return "delay" }

// Submit implements Scheduler.
func (d *Delay) Submit(tasks []*app.Task, now float64) {
	d.queue = append(d.queue, tasks...)
}

// Offer implements Scheduler: node-local tasks first (FIFO), then
// no-preference tasks, then anything whose wait has expired.
func (d *Delay) Offer(e *cluster.Executor, now float64) *app.Task {
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

func (d *Delay) take(i int) *app.Task {
	t := d.queue[i]
	d.queue = append(d.queue[:i], d.queue[i+1:]...)
	return t
}

// Pending implements Scheduler.
func (d *Delay) Pending() int { return len(d.queue) }

// PendingTasks implements Scheduler.
func (d *Delay) PendingTasks() []*app.Task {
	return append([]*app.Task(nil), d.queue...)
}

// NextDeadline implements Scheduler: the earliest upcoming level change
// (node→any at ReadyAt+Wait).
func (d *Delay) NextDeadline(now float64) (float64, bool) {
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

// Remove implements Scheduler.
func (d *Delay) Remove(t *app.Task) bool {
	for i, q := range d.queue {
		if q == t {
			d.take(i)
			return true
		}
	}
	return false
}

// FIFO launches the oldest pending task on any offered executor — no data
// awareness at all.
type FIFO struct {
	queue []*app.Task
}

// NewFIFO builds a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Submit implements Scheduler.
func (f *FIFO) Submit(tasks []*app.Task, now float64) { f.queue = append(f.queue, tasks...) }

// Offer implements Scheduler.
func (f *FIFO) Offer(e *cluster.Executor, now float64) *app.Task {
	if len(f.queue) == 0 {
		return nil
	}
	t := f.queue[0]
	f.queue = f.queue[1:]
	return t
}

// Pending implements Scheduler.
func (f *FIFO) Pending() int { return len(f.queue) }

// PendingTasks implements Scheduler.
func (f *FIFO) PendingTasks() []*app.Task { return append([]*app.Task(nil), f.queue...) }

// NextDeadline implements Scheduler.
func (f *FIFO) NextDeadline(now float64) (float64, bool) { return 0, false }

// Remove implements Scheduler.
func (f *FIFO) Remove(t *app.Task) bool {
	for i, q := range f.queue {
		if q == t {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			return true
		}
	}
	return false
}

// LocalityHard imposes locality as a hard constraint (Sparrow-style, §VII):
// input tasks with live replicas only ever launch on nodes storing their
// block; they wait indefinitely otherwise. Beware: under multi-application
// contention a hard-constrained task can starve forever if its replica
// nodes' executors belong to other applications — exactly the gap the paper
// points out ("while lacks discussions about how to access the executors
// storing the relevant data").
type LocalityHard struct {
	Loc   Locator
	queue []*app.Task
}

// NewLocalityHard builds a hard-constraint scheduler.
func NewLocalityHard(loc Locator) *LocalityHard { return &LocalityHard{Loc: loc} }

// Name implements Scheduler.
func (l *LocalityHard) Name() string { return "locality-hard" }

// Submit implements Scheduler.
func (l *LocalityHard) Submit(tasks []*app.Task, now float64) { l.queue = append(l.queue, tasks...) }

// Offer implements Scheduler.
func (l *LocalityHard) Offer(e *cluster.Executor, now float64) *app.Task {
	node := e.Node.ID
	for i, t := range l.queue {
		if localOn(l.Loc, t, node) || !hasPreference(l.Loc, t) {
			q := l.queue[i]
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return q
		}
	}
	return nil
}

// Pending implements Scheduler.
func (l *LocalityHard) Pending() int { return len(l.queue) }

// PendingTasks implements Scheduler.
func (l *LocalityHard) PendingTasks() []*app.Task { return append([]*app.Task(nil), l.queue...) }

// NextDeadline implements Scheduler.
func (l *LocalityHard) NextDeadline(now float64) (float64, bool) { return 0, false }

// Remove implements Scheduler.
func (l *LocalityHard) Remove(t *app.Task) bool {
	for i, q := range l.queue {
		if q == t {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return true
		}
	}
	return false
}
