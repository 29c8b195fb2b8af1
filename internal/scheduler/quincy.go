package scheduler

import (
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/maxflow"
)

// Quincy is a Quincy-style scheduler (Isard et al., SOSP'09; §VII related
// work): instead of waiting for locality like delay scheduling, it solves a
// global min-cost flow over the application's *entire* executor set, with
// edge costs encoding data-placement preference, and launches tasks
// according to the resulting plan. Unlike real Quincy it does not preempt
// running tasks; the plan covers pending tasks and free capacity only.
type Quincy struct {
	Loc Locator
	// View returns the executors currently allocated to the application;
	// supplied by the driver.
	View func() []*cluster.Executor
	// Costs of placing an input task relative to its block's replicas.
	LocalCost, RackCost, AnyCost float64

	queue []*app.Task
	plan  map[int][]*app.Task // executor ID → tasks planned onto it
	dirty bool
}

// NewQuincy builds the flow-based scheduler.
func NewQuincy(loc Locator, view func() []*cluster.Executor) *Quincy {
	return &Quincy{
		Loc: loc, View: view,
		LocalCost: 0, RackCost: 2, AnyCost: 10,
		plan: map[int][]*app.Task{},
	}
}

// Name implements Scheduler.
func (q *Quincy) Name() string { return "quincy" }

// Submit implements Scheduler.
func (q *Quincy) Submit(tasks []*app.Task, now float64) {
	q.queue = append(q.queue, tasks...)
	q.dirty = true
}

// Offer implements Scheduler: consult (recomputing if stale) the flow plan
// and launch the task planned for this executor.
func (q *Quincy) Offer(e *cluster.Executor, now float64) *app.Task {
	if len(q.queue) == 0 {
		return nil
	}
	if q.dirty {
		q.replan()
	}
	planned := q.plan[e.ID]
	for len(planned) > 0 {
		t := planned[0]
		planned = planned[1:]
		q.plan[e.ID] = planned
		if q.takeFromQueue(t) {
			return t
		}
	}
	// Nothing planned here: replan once in case the world moved on.
	q.replan()
	planned = q.plan[e.ID]
	if len(planned) > 0 {
		t := planned[0]
		q.plan[e.ID] = planned[1:]
		if q.takeFromQueue(t) {
			return t
		}
	}
	return nil
}

func (q *Quincy) takeFromQueue(t *app.Task) bool {
	for i, qt := range q.queue {
		if qt == t {
			q.queue = append(q.queue[:i], q.queue[i+1:]...)
			return true
		}
	}
	return false
}

// replan solves the min-cost assignment of pending tasks to executor slots.
func (q *Quincy) replan() {
	q.dirty = false
	q.plan = map[int][]*app.Task{}
	execs := q.View()
	if len(execs) == 0 || len(q.queue) == 0 {
		return
	}
	// Node layout: 0 source, 1..T tasks, then executors, then sink.
	nT := len(q.queue)
	execBase := 1 + nT
	sink := execBase + len(execs)
	g := maxflow.NewMinCostGraph(sink + 1)
	type edgeRef struct {
		id   int
		task *app.Task
		exec *cluster.Executor
	}
	var refs []edgeRef
	rl, hasRacks := q.Loc.(RackLocator)
	for ei, e := range execs {
		cap := float64(e.Slots())
		g.AddEdge(execBase+ei, sink, cap, 0)
	}
	for ti, t := range q.queue {
		g.AddEdge(0, 1+ti, 1, 0)
		for ei, e := range execs {
			cost := q.AnyCost
			if !hasPreference(q.Loc, t) {
				cost = q.LocalCost // no preference: any slot is fine
			} else if localOn(q.Loc, t, e.Node.ID) {
				cost = q.LocalCost
			} else if hasRacks && q.rackLocal(rl, t, e.Node.ID) {
				cost = q.RackCost
			}
			id := g.AddEdge(1+ti, execBase+ei, 1, cost)
			refs = append(refs, edgeRef{id: id, task: t, exec: e})
		}
	}
	g.MinCostFlow(0, sink, float64(nT))
	for _, r := range refs {
		if g.Flow(r.id) > 0.5 {
			q.plan[r.exec.ID] = append(q.plan[r.exec.ID], r.task)
		}
	}
}

func (q *Quincy) rackLocal(rl RackLocator, t *app.Task, node int) bool {
	rack := rl.Rack(node)
	for _, n := range rl.Locations(t.Block) {
		if rl.Rack(n) == rack {
			return true
		}
	}
	return false
}

// Pending implements Scheduler.
func (q *Quincy) Pending() int { return len(q.queue) }

// PendingTasks implements Scheduler.
func (q *Quincy) PendingTasks() []*app.Task { return append([]*app.Task(nil), q.queue...) }

// NextDeadline implements Scheduler: Quincy never waits, so there is no
// time-based retry.
func (q *Quincy) NextDeadline(now float64) (float64, bool) { return 0, false }
