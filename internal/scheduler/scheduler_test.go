package scheduler

import (
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
)

// fakeLoc maps block → replica nodes. Tests never change the map after
// submitting, so its epoch stays 0.
type fakeLoc map[hdfs.BlockID][]int

func (f fakeLoc) Locations(b hdfs.BlockID) []int          { return f[b] }
func (f fakeLoc) ReplicaOn(b hdfs.BlockID, node int) bool { return slices.Contains(f[b], node) }
func (f fakeLoc) HasReplica(b hdfs.BlockID) bool          { return len(f[b]) > 0 }
func (f fakeLoc) Epoch() uint64                           { return 0 }

func mkCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: 4, ExecutorsPerNode: 1})
}

// mkInputTask builds a ready input task reading the given block.
func mkInputTask(job *app.Job, stage *app.Stage, idx int, block hdfs.BlockID, readyAt float64) *app.Task {
	t := &app.Task{Job: job, Stage: stage, Index: idx, Block: block, State: app.TaskReady, ReadyAt: readyAt, RanOnNode: -1}
	return t
}

func mkShuffleTask(job *app.Job, stage *app.Stage, idx int, readyAt float64) *app.Task {
	t := &app.Task{Job: job, Stage: stage, Index: idx, Block: -1, State: app.TaskReady, ReadyAt: readyAt, RanOnNode: -1}
	return t
}

func scaffold() (*app.Job, *app.Stage) {
	a := app.NewApplication(0, "t")
	j := &app.Job{ID: 1, App: a}
	s := &app.Stage{ID: 0, Job: j}
	return j, s
}

func TestDelayPrefersLocal(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {0}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0) // wants node 2
	t1 := mkInputTask(j, s, 1, 1, 0) // wants node 0
	d.Submit([]*app.Task{t0, t1}, 0)

	c := mkCluster()
	// Executor on node 0: t1 is local there even though t0 is older.
	got := d.Offer(c.Node(0).Executors()[0], 0.1)
	if got != t1 {
		t.Fatalf("Offer(node0) = %v, want the node-local task t1", got)
	}
}

func TestDelayDeclinesThenAccepts(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	e1 := c.Node(1).Executors()[0] // non-local

	if got := d.Offer(e1, 1.0); got != nil {
		t.Fatalf("offer before wait expiry accepted: %v", got)
	}
	if got := d.Offer(e1, 3.0); got != t0 {
		t.Fatalf("offer at wait expiry declined: %v", got)
	}
}

func TestDelayNoPreferenceImmediate(t *testing.T) {
	j, s := scaffold()
	d := NewDelay(fakeLoc{}, 3)
	sh := mkShuffleTask(j, s, 0, 0)
	d.Submit([]*app.Task{sh}, 0)
	c := mkCluster()
	if got := d.Offer(c.Node(3).Executors()[0], 0.0); got != sh {
		t.Fatalf("no-pref task not launched immediately: %v", got)
	}
}

func TestDelayBlockWithNoReplicasIsNoPref(t *testing.T) {
	j, s := scaffold()
	d := NewDelay(fakeLoc{5: {}}, 3)
	t0 := mkInputTask(j, s, 0, 5, 0)
	d.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	if got := d.Offer(c.Node(1).Executors()[0], 0.0); got != t0 {
		t.Fatal("task with no live replicas should launch anywhere immediately")
	}
}

func TestDelayFIFOWithinLevel(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {1}, 1: {1}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0)
	t1 := mkInputTask(j, s, 1, 1, 0)
	d.Submit([]*app.Task{t0, t1}, 0)
	c := mkCluster()
	if got := d.Offer(c.Node(1).Executors()[0], 0); got != t0 {
		t.Fatalf("same-level tie broke FIFO: %v", got)
	}
}

func TestDelayNextDeadline(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {2}}
	d := NewDelay(loc, 3)
	d.Submit([]*app.Task{mkInputTask(j, s, 0, 0, 1.0), mkInputTask(j, s, 1, 1, 2.0)}, 2.0)
	dl, ok := d.NextDeadline(2.0)
	if !ok || dl != 4.0 {
		t.Fatalf("deadline = %v,%v want 4.0 (1.0+3)", dl, ok)
	}
	// After the first deadline passes, the next one applies.
	dl, ok = d.NextDeadline(4.5)
	if !ok || dl != 5.0 {
		t.Fatalf("second deadline = %v,%v want 5.0", dl, ok)
	}
	// No pending preference tasks → no deadline.
	d2 := NewDelay(fakeLoc{}, 3)
	if _, ok := d2.NextDeadline(0); ok {
		t.Fatal("deadline with empty queue")
	}
}

func TestFIFOIgnoresLocality(t *testing.T) {
	j, s := scaffold()
	f := NewFIFO()
	t0 := mkInputTask(j, s, 0, 0, 0)
	t1 := mkInputTask(j, s, 1, 1, 0)
	f.Submit([]*app.Task{t0, t1}, 0)
	c := mkCluster()
	if got := f.Offer(c.Node(3).Executors()[0], 0); got != t0 {
		t.Fatalf("FIFO returned %v, want oldest", got)
	}
	if f.Pending() != 1 {
		t.Fatalf("pending = %d", f.Pending())
	}
	if got := f.Offer(c.Node(3).Executors()[0], 0); got != t1 {
		t.Fatalf("FIFO second offer = %v", got)
	}
	if got := f.Offer(c.Node(3).Executors()[0], 0); got != nil {
		t.Fatalf("empty FIFO returned %v", got)
	}
}

func TestLocalityHardNeverCompromises(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}}
	l := NewLocalityHard(loc)
	t0 := mkInputTask(j, s, 0, 0, 0)
	l.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	if got := l.Offer(c.Node(1).Executors()[0], 1e9); got != nil {
		t.Fatalf("hard scheduler launched non-locally: %v", got)
	}
	if got := l.Offer(c.Node(2).Executors()[0], 0); got != t0 {
		t.Fatalf("hard scheduler declined a local offer: %v", got)
	}
}

func TestPendingTasksCopy(t *testing.T) {
	j, s := scaffold()
	d := NewDelay(fakeLoc{}, 3)
	t0 := mkShuffleTask(j, s, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	view := d.PendingTasks()
	view[0] = nil
	if d.PendingTasks()[0] != t0 {
		t.Fatal("PendingTasks exposed internal slice")
	}
}

func TestDelayHintLevelZero(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {1}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0) // block on node 2
	t1 := mkInputTask(j, s, 1, 1, 0) // block on node 1
	hints := map[*app.Task]int{}
	d.Hint = func(t *app.Task) (int, bool) { e, ok := hints[t]; return e, ok }
	d.Submit([]*app.Task{t0, t1}, 0)
	c := mkCluster()
	e1 := c.Node(1).Executors()[0]
	// t0 is hinted to executor e1 even though its block is elsewhere: the
	// hint wins over t1's node-locality (level 0 < level 1).
	hints[t0] = e1.ID
	d.Hinted(t0, e1.ID)
	if got := d.Offer(e1, 0); got != t0 {
		t.Fatalf("hinted task not taken first: %v", got)
	}
	// Without a hint the normal locality order applies.
	if got := d.Offer(e1, 0); got != t1 {
		t.Fatalf("after hint consumed, local task expected: %v", got)
	}
}
