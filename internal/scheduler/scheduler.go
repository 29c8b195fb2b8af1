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
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
)

// Locator answers block-location queries; satisfied by *hdfs.NameNode.
// ReplicaOn and HasReplica answer what Locations would, without building the
// list: they are the per-offer probes of the scanning schedulers.
type Locator interface {
	Locations(hdfs.BlockID) []int
	// ReplicaOn reports whether Locations(id) names node.
	ReplicaOn(id hdfs.BlockID, node int) bool
	// HasReplica reports whether Locations(id) is non-empty.
	HasReplica(id hdfs.BlockID) bool
	// Epoch changes whenever any of the answers above may have changed;
	// Delay rebuilds its locality postings when it does.
	Epoch() uint64
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
	// PendingTasks returns the queued tasks in FIFO order, in a fresh slice
	// the caller owns.
	PendingTasks() []*app.Task
	// NextDeadline returns the earliest future time at which an offer that
	// is currently declined could be accepted (locality-wait expiry), and
	// whether such a deadline exists.
	NextDeadline(now float64) (float64, bool)
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
//
// An offer picks the first queued task, in submission order, at the best
// level that has one: hinted to the offered executor, local to its node, no
// preference, or any task whose wait has expired. Rather than scanning the
// queue for each level, Delay keeps every level's candidates in their own
// list in queue order, as Spark's TaskSetManager keeps its pending-task
// lists: per node the tasks with a live replica there, the tasks with no
// preference, and per executor the hinted tasks. A launched task leaves the
// lists lazily (marked taken, skipped and dropped when a list's front
// reaches it), so the first live entry of a list is the level's pick and an
// offer costs O(1) amortized. The node lists hold the Locator's answers, so
// Delay rebuilds them whenever Locator.Epoch moves.
//
// Submit requires tasks in non-decreasing ReadyAt order (the driver stamps
// ReadyAt with the submission time). Then the oldest queued task is the
// first whose wait expires, and the earliest locality deadline belongs to
// the first queued task with a preference whose deadline is still ahead.
type Delay struct {
	Loc  Locator
	Wait float64 // seconds; Spark default 3.0
	// Hint optionally returns the manager's scheduling suggestion for a
	// task (the executor Custody allocated with it in mind, §V). A pending
	// task hinted to the offered executor is taken before anything else;
	// nil disables suggestions. Hint is read when a task is submitted; a
	// hint given to a task already queued must be announced with Hinted.
	Hint func(*app.Task) (execID int, ok bool)

	queue  postings   // every queued task
	byNode []postings // node → tasks with a live replica there
	noPref postings   // tasks with no live replica anywhere
	pref   postings   // tasks with one; NextDeadline walks these
	byExec []postings // executor ID → tasks hinted to it

	epoch   uint64  // the Locator epoch the postings reflect
	seq     uint64  // submission counter
	pending int     // live tasks in queue
	taken   int     // tasks taken since the lists were last compacted
	readyAt float64 // ReadyAt of the last submitted task
	dlNow   float64 // now of the last NextDeadline; pref.mark is valid for it
}

// entry is one queued task, shared by every list that holds it.
type entry struct {
	t     *app.Task
	seq   uint64 // submission order
	taken bool
}

// postings is a list of entries in submission order. es[:head] is consumed;
// taken entries after head are skipped and dropped lazily.
type postings struct {
	es   []*entry
	head int
	mark int // pref only: no live entry in es[head:mark] has a deadline after Delay.dlNow
}

// first returns the list's first live entry, dropping taken ones ahead of
// it, or nil.
func (l *postings) first() *entry {
	for ; l.head < len(l.es); l.head++ {
		if x := l.es[l.head]; !x.taken {
			return x
		}
	}
	return nil
}

// compact drops the consumed prefix and every taken entry, keeping order.
func (l *postings) compact() {
	out := l.es[:0]
	for _, x := range l.es[l.head:] {
		if !x.taken {
			out = append(out, x)
		}
	}
	clear(l.es[len(out):])
	l.es, l.head, l.mark = out, 0, 0
}

// reset empties the list, keeping its storage.
func (l *postings) reset() {
	clear(l.es)
	l.es, l.head, l.mark = l.es[:0], 0, 0
}

// compactSlack bounds how many taken tasks may linger in the lists beyond the
// live ones before every list is compacted; it keeps tiny queues from
// compacting on every launch.
const compactSlack = 256

// DefaultWait is Spark's spark.locality.wait default.
const DefaultWait = 3.0

// NewDelay builds a delay scheduler with the given locality wait.
func NewDelay(loc Locator, wait float64) *Delay {
	if wait < 0 {
		wait = 0
	}
	return &Delay{Loc: loc, Wait: wait, epoch: loc.Epoch(), readyAt: math.Inf(-1)}
}

// Name implements Scheduler.
func (d *Delay) Name() string { return "delay" }

// Submit implements Scheduler. It panics if a task's ReadyAt is earlier than
// that of a task submitted before it: the offer levels rely on that order.
func (d *Delay) Submit(tasks []*app.Task, now float64) {
	d.sync()
	es := make([]entry, len(tasks))
	for i, t := range tasks {
		if t.ReadyAt < d.readyAt {
			panic(fmt.Sprintf("scheduler: Delay.Submit out of ReadyAt order: %v after %v", t.ReadyAt, d.readyAt))
		}
		d.readyAt = t.ReadyAt
		x := &es[i]
		x.t, x.seq = t, d.seq
		d.seq++
		d.pending++
		d.queue.es = append(d.queue.es, x)
		d.classify(x)
		if d.Hint != nil {
			if id, ok := d.Hint(t); ok {
				l := d.hinted(id)
				l.es = append(l.es, x)
			}
		}
	}
}

// classify posts a queued entry to its node lists and to pref, or to noPref.
func (d *Delay) classify(x *entry) {
	if x.t.IsInput() {
		if locs := d.Loc.Locations(x.t.Block); len(locs) > 0 {
			for _, n := range locs {
				if n >= len(d.byNode) {
					d.byNode = append(d.byNode, make([]postings, n+1-len(d.byNode))...)
				}
				d.byNode[n].es = append(d.byNode[n].es, x)
			}
			d.pref.es = append(d.pref.es, x)
			return
		}
	}
	d.noPref.es = append(d.noPref.es, x)
}

// hinted returns the hint list of an executor, growing the index to it.
func (d *Delay) hinted(execID int) *postings {
	if execID >= len(d.byExec) {
		d.byExec = append(d.byExec, make([]postings, execID+1-len(d.byExec))...)
	}
	return &d.byExec[execID]
}

// Hinted tells the scheduler that the Hint for a task now names execID. A
// task that is not queued here is ignored; Submit reads its hint later. A
// hint that moves on stays in the old executor's list until an offer there
// finds that Hint no longer names it.
func (d *Delay) Hinted(t *app.Task, execID int) {
	if d.Hint == nil {
		return
	}
	for _, x := range d.queue.es[d.queue.head:] {
		if x.t != t || x.taken {
			continue
		}
		l := d.hinted(execID)
		i, _ := slices.BinarySearchFunc(l.es[l.head:], x.seq, func(y *entry, seq uint64) int {
			return cmp.Compare(y.seq, seq)
		})
		l.es = slices.Insert(l.es, l.head+i, x)
	}
}

// sync rebuilds the locality postings when the Locator's answers may have
// changed since they were built.
func (d *Delay) sync() {
	ep := d.Loc.Epoch()
	if ep == d.epoch {
		return
	}
	d.epoch = ep
	d.compact()
	for i := range d.byNode {
		d.byNode[i].reset()
	}
	d.noPref.reset()
	d.pref.reset()
	for _, x := range d.queue.es {
		d.classify(x)
	}
}

// compact drops every taken entry from every list.
func (d *Delay) compact() {
	for _, l := range [...]*postings{&d.queue, &d.noPref, &d.pref} {
		l.compact()
	}
	for i := range d.byNode {
		d.byNode[i].compact()
	}
	for i := range d.byExec {
		d.byExec[i].compact()
	}
	d.taken = 0
}

// Offer implements Scheduler: hinted tasks first, then node-local tasks,
// then no-preference tasks, then the oldest task once its wait has expired.
func (d *Delay) Offer(e *cluster.Executor, now float64) *app.Task {
	d.sync()
	// Level 0: the manager suggested this very executor for the task.
	if d.Hint != nil && e.ID < len(d.byExec) {
		l := &d.byExec[e.ID]
		for ; l.head < len(l.es); l.head++ {
			x := l.es[l.head]
			if x.taken {
				continue
			}
			if id, ok := d.Hint(x.t); ok && id == e.ID {
				return d.take(x)
			}
		}
	}
	// Level 1: node-local.
	if n := e.Node.ID; n < len(d.byNode) {
		if x := d.byNode[n].first(); x != nil {
			return d.take(x)
		}
	}
	// Level 2: tasks with no locality preference launch anywhere.
	if x := d.noPref.first(); x != nil {
		return d.take(x)
	}
	// Level 3: wait expired → accept any slot. The oldest task expires
	// first.
	if x := d.queue.first(); x != nil && now-x.t.ReadyAt >= d.Wait {
		return d.take(x)
	}
	return nil
}

// take marks a queued entry launched. Once more taken entries than live ones
// (plus compactSlack) may linger in the lists, every list is compacted.
func (d *Delay) take(x *entry) *app.Task {
	x.taken = true
	d.pending--
	if d.taken++; d.taken > d.pending+compactSlack {
		d.compact()
	}
	return x.t
}

// Pending implements Scheduler.
func (d *Delay) Pending() int { return d.pending }

// PendingTasks implements Scheduler.
func (d *Delay) PendingTasks() []*app.Task {
	out := make([]*app.Task, 0, d.pending)
	for _, x := range d.queue.es[d.queue.head:] {
		if !x.taken {
			out = append(out, x.t)
		}
	}
	return out
}

// NextDeadline implements Scheduler: the earliest upcoming level change
// (node→any at ReadyAt+Wait). Deadlines grow along the queue, so it is the
// first live preference entry whose deadline is still ahead; pref.mark
// remembers how far earlier calls got, so a run of calls with
// non-decreasing now walks each entry once.
func (d *Delay) NextDeadline(now float64) (float64, bool) {
	d.sync()
	l := &d.pref
	i := l.head
	if now >= d.dlNow {
		i = max(i, l.mark)
	}
	d.dlNow = now
	for ; i < len(l.es); i++ {
		if x := l.es[i]; !x.taken {
			if dl := x.t.ReadyAt + d.Wait; dl > now {
				l.mark = i
				return dl, true
			}
		}
	}
	l.mark = i
	return 0, false
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
