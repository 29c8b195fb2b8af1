package scheduler

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
)

func TestTaskSetGroupsByStage(t *testing.T) {
	j, s1 := scaffold()
	s2 := &app.Stage{ID: 1, Job: j}
	d := NewDelayTaskSet(fakeLoc{}, 3)
	d.Submit([]*app.Task{mkShuffleTask(j, s1, 0, 0), mkShuffleTask(j, s2, 0, 0), mkShuffleTask(j, s1, 1, 0)}, 0)
	if d.Pending() != 3 {
		t.Fatalf("pending = %d", d.Pending())
	}
	if len(d.sets) != 2 {
		t.Fatalf("tasksets = %d, want 2", len(d.sets))
	}
}

func TestTaskSetLocalLaunchAnytime(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}}
	d := NewDelayTaskSet(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	if got := d.Offer(c.Node(2).Executors()[0], 0.0); got != t0 {
		t.Fatalf("local offer declined: %v", got)
	}
}

func TestTaskSetDegradesAfterWait(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}}
	d := NewDelayTaskSet(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	e1 := c.Node(1).Executors()[0]
	if got := d.Offer(e1, 2.0); got != nil {
		t.Fatalf("non-local offer accepted before degradation: %v", got)
	}
	if got := d.Offer(e1, 3.0); got != t0 {
		t.Fatalf("degraded taskset declined: %v", got)
	}
}

func TestTaskSetLaunchResetsClock(t *testing.T) {
	// Spark semantics: a launch at ANY level resets lastLaunchTime, so the
	// taskset reverts to preferring locality.
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {2}}
	d := NewDelayTaskSet(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0)
	t1 := mkInputTask(j, s, 1, 1, 0)
	d.Submit([]*app.Task{t0, t1}, 0)
	c := mkCluster()
	e1 := c.Node(1).Executors()[0]
	// At t=3 the set degrades; t0 launches non-locally and resets the clock.
	if got := d.Offer(e1, 3.0); got != t0 {
		t.Fatalf("first degraded launch = %v", got)
	}
	// Immediately after, the set is back at the local level: t1 declines e1.
	if got := d.Offer(e1, 3.5); got != nil {
		t.Fatalf("taskset did not reset after launch: %v", got)
	}
	// But still launches locally right away.
	if got := d.Offer(c.Node(2).Executors()[0], 3.5); got != t1 {
		t.Fatalf("local launch after reset declined: %v", got)
	}
}

func TestTaskSetFIFOAcrossSets(t *testing.T) {
	j, s1 := scaffold()
	s2 := &app.Stage{ID: 1, Job: j}
	d := NewDelayTaskSet(fakeLoc{}, 3)
	a := mkShuffleTask(j, s1, 0, 0)
	b := mkShuffleTask(j, s2, 0, 0)
	d.Submit([]*app.Task{a}, 0)
	d.Submit([]*app.Task{b}, 1)
	c := mkCluster()
	if got := d.Offer(c.Node(0).Executors()[0], 2); got != a {
		t.Fatalf("older taskset skipped: %v", got)
	}
}

func TestTaskSetNextDeadline(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}}
	d := NewDelayTaskSet(loc, 3)
	d.Submit([]*app.Task{mkInputTask(j, s, 0, 0, 1.0)}, 1.0)
	dl, ok := d.NextDeadline(1.0)
	if !ok || dl != 4.0 {
		t.Fatalf("deadline = %v,%v", dl, ok)
	}
	// No-preference-only sets have no deadline.
	d2 := NewDelayTaskSet(fakeLoc{}, 3)
	d2.Submit([]*app.Task{mkShuffleTask(j, s, 0, 0)}, 0)
	if _, ok := d2.NextDeadline(0); ok {
		t.Fatal("deadline for no-pref taskset")
	}
}

func TestTaskSetRemoveAndCompact(t *testing.T) {
	j, s := scaffold()
	d := NewDelayTaskSet(fakeLoc{}, 3)
	t0 := mkShuffleTask(j, s, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	if !d.Remove(t0) {
		t.Fatal("Remove failed")
	}
	if d.Pending() != 0 || len(d.sets) != 0 {
		t.Fatalf("pending=%d sets=%d after Remove", d.Pending(), len(d.sets))
	}
	if d.Remove(t0) {
		t.Fatal("double Remove succeeded")
	}
}

func TestQuincyPlansLocally(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {3}}
	c := mkCluster()
	for i := 0; i < 4; i++ {
		if err := c.Allocate(c.Node(i).Executors()[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	q := NewQuincy(loc, func() []*cluster.Executor { return c.Owned(0) })
	t0 := mkInputTask(j, s, 0, 0, 0) // wants node 2
	t1 := mkInputTask(j, s, 1, 1, 0) // wants node 3
	q.Submit([]*app.Task{t0, t1}, 0)
	// Quincy's global plan puts each task on its block's node, so offering
	// node 2 yields t0 and node 3 yields t1 — regardless of FIFO order.
	if got := q.Offer(c.Node(3).Executors()[0], 0); got != t1 {
		t.Fatalf("Offer(node3) = %v, want t1", got)
	}
	if got := q.Offer(c.Node(2).Executors()[0], 0); got != t0 {
		t.Fatalf("Offer(node2) = %v, want t0", got)
	}
}

func TestQuincyNeverWaits(t *testing.T) {
	// Unlike delay scheduling, Quincy launches immediately even non-locally
	// when the plan says so (no local capacity exists at all).
	j, s := scaffold()
	loc := fakeLoc{0: {9}} // replica on a node with no executor
	c := mkCluster()
	c.Allocate(c.Node(1).Executors()[0], 0)
	q := NewQuincy(loc, func() []*cluster.Executor { return c.Owned(0) })
	t0 := mkInputTask(j, s, 0, 0, 0)
	q.Submit([]*app.Task{t0}, 0)
	if got := q.Offer(c.Node(1).Executors()[0], 0); got != t0 {
		t.Fatalf("Quincy waited: %v", got)
	}
	if _, ok := q.NextDeadline(0); ok {
		t.Fatal("Quincy reported a wait deadline")
	}
}

func TestQuincyCapacityRespected(t *testing.T) {
	// More tasks than slots: the plan covers slot capacity; leftovers stay
	// queued until offers recur.
	j, s := scaffold()
	loc := fakeLoc{}
	c := mkCluster()
	c.Allocate(c.Node(0).Executors()[0], 0)
	q := NewQuincy(loc, func() []*cluster.Executor { return c.Owned(0) })
	var tasks []*app.Task
	for i := 0; i < 3; i++ {
		tasks = append(tasks, mkShuffleTask(j, s, i, 0))
	}
	q.Submit(tasks, 0)
	e := c.Node(0).Executors()[0]
	if got := q.Offer(e, 0); got == nil {
		t.Fatal("first offer declined")
	}
	if q.Pending() != 2 {
		t.Fatalf("pending = %d", q.Pending())
	}
}

func TestQuincyRemove(t *testing.T) {
	j, s := scaffold()
	c := mkCluster()
	q := NewQuincy(fakeLoc{}, func() []*cluster.Executor { return c.Owned(0) })
	t0 := mkShuffleTask(j, s, 0, 0)
	q.Submit([]*app.Task{t0}, 0)
	if !q.Remove(t0) || q.Pending() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestDelayRackLevel(t *testing.T) {
	j, s := scaffold()
	// rackLoc: nodes 0,1 in rack 0; nodes 2,3 in rack 1. Block on node 2.
	loc := rackLoc{replicas: fakeLoc{0: {2}}, rackSize: 2}
	d := NewDelay(loc, 3)
	d.RackWait = 2
	t0 := mkInputTask(j, s, 0, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	eSameRack := c.Node(3).Executors()[0]  // rack 1, same as replica
	eOtherRack := c.Node(0).Executors()[0] // rack 0
	// Before the node wait: decline everything non-node-local.
	if got := d.Offer(eSameRack, 1.0); got != nil {
		t.Fatalf("rack offer accepted before node wait: %v", got)
	}
	// After node wait but before rack wait: accept rack-local only.
	if got := d.Offer(eOtherRack, 3.5); got != nil {
		t.Fatalf("off-rack offer accepted during rack window: %v", got)
	}
	if got := d.Offer(eSameRack, 3.5); got != t0 {
		t.Fatalf("rack-local offer declined after node wait: %v", got)
	}
	// Fully expired: anything goes.
	d2 := NewDelay(loc, 3)
	d2.RackWait = 2
	d2.Submit([]*app.Task{mkInputTask(j, s, 1, 0, 0)}, 0)
	if got := d2.Offer(eOtherRack, 5.0); got == nil {
		t.Fatal("off-rack offer declined after all waits expired")
	}
}

func TestDelayRackDeadlines(t *testing.T) {
	j, s := scaffold()
	loc := rackLoc{replicas: fakeLoc{0: {2}}, rackSize: 2}
	d := NewDelay(loc, 3)
	d.RackWait = 2
	d.Submit([]*app.Task{mkInputTask(j, s, 0, 0, 1.0)}, 1.0)
	dl, ok := d.NextDeadline(1.0)
	if !ok || dl != 4.0 {
		t.Fatalf("first deadline = %v,%v want 4.0", dl, ok)
	}
	dl, ok = d.NextDeadline(4.5)
	if !ok || dl != 6.0 {
		t.Fatalf("second deadline = %v,%v want 6.0 (rack expiry)", dl, ok)
	}
}

// rackLoc is a RackLocator for tests: rackSize nodes per rack.
type rackLoc struct {
	replicas fakeLoc
	rackSize int
}

func (r rackLoc) Locations(b hdfs.BlockID) []int          { return r.replicas.Locations(b) }
func (r rackLoc) ReplicaOn(b hdfs.BlockID, node int) bool { return r.replicas.ReplicaOn(b, node) }
func (r rackLoc) HasReplica(b hdfs.BlockID) bool          { return r.replicas.HasReplica(b) }
func (r rackLoc) Rack(node int) int                       { return node / r.rackSize }
