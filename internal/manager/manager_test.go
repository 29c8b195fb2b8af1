package manager

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// fakeEnv is a controllable manager.Env for unit tests.
type fakeEnv struct {
	cl      *cluster.Cluster
	nn      *hdfs.NameNode
	apps    []*app.Application
	pending map[cluster.AppID][]*app.Task
	col     *metrics.Collector
	now     float64
	sched   []func()
	hints   []int
	accepts map[cluster.AppID]bool // TryLaunch outcomes
}

func newFakeEnv(nodes, execPerNode, slots int) *fakeEnv {
	return &fakeEnv{
		cl:      cluster.New(cluster.Config{Nodes: nodes, ExecutorsPerNode: execPerNode, SlotsPerExecutor: slots}),
		nn:      hdfs.NewNameNode(nodes, xrand.New(1)),
		pending: map[cluster.AppID][]*app.Task{},
		col:     metrics.NewCollector(),
		accepts: map[cluster.AppID]bool{},
	}
}

func (f *fakeEnv) addApp(name string) *app.Application {
	a := app.NewApplication(cluster.AppID(len(f.apps)), name)
	f.apps = append(f.apps, a)
	return a
}

func (f *fakeEnv) Now() float64                  { return f.now }
func (f *fakeEnv) Cluster() *cluster.Cluster     { return f.cl }
func (f *fakeEnv) NameNode() *hdfs.NameNode      { return f.nn }
func (f *fakeEnv) Apps() []*app.Application      { return f.apps }
func (f *fakeEnv) Collector() *metrics.Collector { return f.col }

// PendingInputTasks copies the app's input tasks into one fresh slice, as
// the driver's filtered scheduler copy is.
func (f *fakeEnv) PendingInputTasks(a *app.Application) []*app.Task {
	out := make([]*app.Task, 0, len(f.pending[a.ID]))
	for _, t := range f.pending[a.ID] {
		if t.IsInput() {
			out = append(out, t)
		}
	}
	return out
}

func (f *fakeEnv) PendingCount(a *app.Application) int { return len(f.pending[a.ID]) }

func (f *fakeEnv) Allocate(e *cluster.Executor, id cluster.AppID) {
	if err := f.cl.Allocate(e, id); err != nil {
		panic(err)
	}
}

func (f *fakeEnv) Release(e *cluster.Executor) {
	if err := f.cl.Release(e); err != nil {
		panic(err)
	}
}

func (f *fakeEnv) TryLaunch(e *cluster.Executor, a *app.Application) bool {
	if !f.accepts[a.ID] {
		return false
	}
	f.Allocate(e, a.ID)
	f.cl.StartTask(e)
	return true
}

func (f *fakeEnv) Schedule(delay float64, fn func()) { f.sched = append(f.sched, fn) }

func (f *fakeEnv) Hint(t *app.Task, execID int) { f.hints = append(f.hints, execID) }

// mkTask builds a pending input task for a job of the app.
func mkTask(a *app.Application, jobID, idx int, block hdfs.BlockID) *app.Task {
	j := &app.Job{ID: jobID, App: a}
	s := &app.Stage{ID: 0, Job: j}
	return &app.Task{Job: j, Stage: s, Index: idx, Block: block, State: app.TaskReady, RanOnNode: -1}
}

func TestStandaloneFairShare(t *testing.T) {
	env := newFakeEnv(10, 2, 1)
	a0 := env.addApp("a0")
	a1 := env.addApp("a1")
	m := NewStandalone(xrand.New(3), false)
	m.Register(env)
	if got := env.cl.OwnedCount(a0.ID); got != 10 {
		t.Fatalf("app0 executors = %d, want 10 (20/2)", got)
	}
	if got := env.cl.OwnedCount(a1.ID); got != 10 {
		t.Fatalf("app1 executors = %d, want 10", got)
	}
	if len(env.cl.Free()) != 0 {
		t.Fatalf("free executors = %d", len(env.cl.Free()))
	}
}

func TestStandaloneSpreadOutDistinctNodes(t *testing.T) {
	env := newFakeEnv(10, 2, 1)
	a0 := env.addApp("a0")
	env.addApp("a1")
	m := NewStandalone(xrand.New(3), true)
	m.Register(env)
	// Spread-out: 10 executors over 10 nodes → all nodes distinct.
	nodes := map[int]bool{}
	for _, e := range env.cl.Owned(a0.ID) {
		nodes[e.Node.ID] = true
	}
	if len(nodes) != 10 {
		t.Fatalf("spread-out app covers %d nodes, want 10", len(nodes))
	}
}

func TestStandaloneStatic(t *testing.T) {
	env := newFakeEnv(4, 1, 1)
	a := env.addApp("a")
	m := NewStandalone(xrand.New(3), false)
	m.Register(env)
	before := env.cl.OwnedCount(a.ID)
	m.OnJobSubmit(env, a, nil)
	m.OnJobFinish(env, a, nil)
	m.OnExecutorIdle(env, env.cl.Executor(0))
	if env.cl.OwnedCount(a.ID) != before {
		t.Fatal("standalone allocation changed after registration")
	}
}

func TestCustodyAllocatesOnSubmit(t *testing.T) {
	env := newFakeEnv(6, 1, 1)
	a := env.addApp("a")
	f, err := env.nn.Create("in", 128<<20) // one block
	if err != nil {
		t.Fatal(err)
	}
	task := mkTask(a, 1, 0, f.Blocks[0].ID)
	env.pending[a.ID] = []*app.Task{task}
	m := NewCustody()
	m.Register(env) // no allocation at registration (§V)
	if env.cl.OwnedCount(a.ID) != 0 {
		t.Fatal("custody allocated at registration")
	}
	m.OnJobSubmit(env, a, task.Job)
	owned := env.cl.Owned(a.ID)
	if len(owned) == 0 {
		t.Fatal("custody allocated nothing on submit")
	}
	locs := env.nn.Locations(f.Blocks[0].ID)
	found := false
	for _, e := range owned {
		for _, n := range locs {
			if e.Node.ID == n {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no allocated executor on replica nodes %v (owned %v)", locs, owned)
	}
	if env.col.Reallocations == 0 {
		t.Fatal("reallocation counter not incremented")
	}
}

func TestCustodyRespectsBudget(t *testing.T) {
	env := newFakeEnv(4, 1, 1)
	a0 := env.addApp("a0")
	env.addApp("a1")
	// Budget = 4/2 = 2 executors per app; app0 demands 4 blocks.
	f, _ := env.nn.Create("in", 4*128<<20)
	var tasks []*app.Task
	for i, b := range f.Blocks {
		tasks = append(tasks, mkTask(a0, 1, i, b.ID))
	}
	env.pending[a0.ID] = tasks
	m := NewCustody()
	m.OnJobSubmit(env, a0, tasks[0].Job)
	if got := env.cl.OwnedCount(a0.ID); got > 2 {
		t.Fatalf("app0 owns %d executors, budget is 2", got)
	}
}

func TestCustodyIdleExecutorKeptWhilePending(t *testing.T) {
	env := newFakeEnv(4, 1, 1)
	a := env.addApp("a")
	f, _ := env.nn.Create("in", 128<<20)
	task := mkTask(a, 1, 0, f.Blocks[0].ID)
	env.pending[a.ID] = []*app.Task{task}
	m := NewCustody()
	m.OnJobSubmit(env, a, task.Job)
	owned := env.cl.Owned(a.ID)
	if len(owned) == 0 {
		t.Fatal("no allocation")
	}
	// Executor idles but the app still has queued work → keep.
	m.OnExecutorIdle(env, owned[0])
	if owned[0].Owner() != a.ID {
		t.Fatal("custody reclaimed an executor its owner still needs")
	}
	// No queued work → reallocation may reclaim it.
	env.pending[a.ID] = nil
	m.OnExecutorIdle(env, owned[0])
	if owned[0].Owner() == a.ID {
		t.Fatal("custody kept an executor with no demand")
	}
}

func TestCustodyStickyKeepsCoveringExecutor(t *testing.T) {
	env := newFakeEnv(4, 1, 1)
	a := env.addApp("a")
	f, _ := env.nn.Create("in", 128<<20)
	task := mkTask(a, 1, 0, f.Blocks[0].ID)
	env.pending[a.ID] = []*app.Task{task}
	m := NewCustody()
	m.OnJobSubmit(env, a, task.Job)
	first := env.cl.Owned(a.ID)
	// A second reallocation must not migrate the covering executor.
	m.OnJobSubmit(env, a, task.Job)
	second := env.cl.Owned(a.ID)
	if len(first) == 0 || len(second) == 0 || first[0].ID != second[0].ID {
		t.Fatalf("sticky executor migrated: %v → %v", first, second)
	}
}

func TestOfferRoundRobinAndRejection(t *testing.T) {
	env := newFakeEnv(2, 1, 1)
	a0 := env.addApp("a0")
	a1 := env.addApp("a1")
	env.accepts[a0.ID] = false
	env.accepts[a1.ID] = true
	env.pending[a0.ID] = []*app.Task{mkTask(a0, 1, 0, -1)}
	m := NewOffer()
	m.OnJobSubmit(env, a0, nil)
	// a1 accepts everything; a0 rejections counted.
	if env.col.OfferRejections == 0 {
		t.Fatal("no rejections recorded")
	}
	if env.cl.OwnedCount(a1.ID) == 0 {
		t.Fatal("accepting app received nothing")
	}
}

func TestOfferRetryScheduledOnlyWithPendingWork(t *testing.T) {
	env := newFakeEnv(1, 1, 1)
	a0 := env.addApp("a0")
	env.accepts[a0.ID] = false
	m := NewOffer()
	// No pending work → no retry timers.
	m.OnJobSubmit(env, a0, nil)
	if len(env.sched) != 0 {
		t.Fatalf("retry scheduled with no pending work (%d)", len(env.sched))
	}
	// Pending work → exactly one retry per executor.
	env.pending[a0.ID] = []*app.Task{mkTask(a0, 1, 0, -1)}
	m.OnJobSubmit(env, a0, nil)
	if len(env.sched) != 1 {
		t.Fatalf("retries scheduled = %d, want 1", len(env.sched))
	}
	// A second round must not double-schedule the same executor.
	m.OnJobSubmit(env, a0, nil)
	if len(env.sched) != 1 {
		t.Fatalf("duplicate retry scheduled (%d)", len(env.sched))
	}
}

func TestOfferReleasesIdleExecutor(t *testing.T) {
	env := newFakeEnv(2, 1, 1)
	a0 := env.addApp("a0")
	env.accepts[a0.ID] = false
	e := env.cl.Executor(0)
	env.cl.Allocate(e, a0.ID)
	m := NewOffer()
	m.OnExecutorIdle(env, e)
	if e.Owner() == a0.ID {
		t.Fatal("offer manager kept an idle executor allocated")
	}
}

func TestFairShareMath(t *testing.T) {
	env := newFakeEnv(5, 2, 1)
	env.addApp("a")
	env.addApp("b")
	env.addApp("c")
	if got := fairShare(env); got != 3 { // 10/3
		t.Fatalf("fairShare = %d, want 3", got)
	}
}

func TestCustodyMultiSlotAllocation(t *testing.T) {
	env := newFakeEnv(2, 1, 4) // 2 executors, 4 slots each
	a := env.addApp("a")
	f, _ := env.nn.Create("in", 4*128<<20) // 4 blocks over 2 nodes
	var tasks []*app.Task
	for i, b := range f.Blocks {
		tasks = append(tasks, mkTask(a, 1, i, b.ID))
	}
	env.pending[a.ID] = tasks
	m := NewCustody()
	m.OnJobSubmit(env, a, tasks[0].Job)
	// Budget = 2 executors; all 4 tasks can be local across 8 slots.
	if got := env.cl.OwnedCount(a.ID); got == 0 || got > 2 {
		t.Fatalf("owned executors = %d", got)
	}
}

// Interface compliance.
var (
	_ Manager = (*Standalone)(nil)
	_ Manager = (*Custody)(nil)
	_ Manager = (*Offer)(nil)
	_ Env     = (*fakeEnv)(nil)
	_         = core.DefaultOptions
)

func TestYARNGrowsOnDemand(t *testing.T) {
	env := newFakeEnv(4, 1, 1)
	a := env.addApp("a")
	m := NewYARN()
	m.Register(env)
	if env.cl.OwnedCount(a.ID) != 0 {
		t.Fatal("YARN allocated at registration")
	}
	// Demand of 2 tasks → pool grows to 2 executors (deficit-driven).
	env.pending[a.ID] = []*app.Task{mkTask(a, 1, 0, -1), mkTask(a, 1, 1, -1)}
	m.OnJobSubmit(env, a, nil)
	if got := env.cl.OwnedCount(a.ID); got != 2 {
		t.Fatalf("pool = %d executors, want 2", got)
	}
}

func TestYARNRespectsFairShare(t *testing.T) {
	env := newFakeEnv(4, 1, 1) // share = 4/2 = 2
	a0 := env.addApp("a0")
	env.addApp("a1")
	var tasks []*app.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, mkTask(a0, 1, i, -1))
	}
	env.pending[a0.ID] = tasks
	m := NewYARN()
	m.OnJobSubmit(env, a0, nil)
	if got := env.cl.OwnedCount(a0.ID); got > 2 {
		t.Fatalf("pool = %d executors, share is 2", got)
	}
}

func TestYARNShrinksIdlePool(t *testing.T) {
	env := newFakeEnv(4, 1, 1)
	a := env.addApp("a")
	env.pending[a.ID] = []*app.Task{mkTask(a, 1, 0, -1)}
	m := NewYARN()
	m.OnJobSubmit(env, a, nil)
	owned := env.cl.Owned(a.ID)
	if len(owned) == 0 {
		t.Fatal("no allocation")
	}
	// Demand gone → idle executor released.
	env.pending[a.ID] = nil
	m.OnExecutorIdle(env, owned[0])
	if owned[0].Owner() == a.ID {
		t.Fatal("YARN kept an idle executor with no demand")
	}
}

func TestYARNIsDataUnaware(t *testing.T) {
	// YARN must pick the lowest-numbered free executor regardless of where
	// the task's block lives.
	env := newFakeEnv(6, 1, 1)
	a := env.addApp("a")
	f, _ := env.nn.Create("in", 128<<20)
	task := mkTask(a, 1, 0, f.Blocks[0].ID)
	env.pending[a.ID] = []*app.Task{task}
	m := NewYARN()
	m.OnJobSubmit(env, a, nil)
	owned := env.cl.Owned(a.ID)
	if len(owned) != 1 || owned[0].ID != 0 {
		t.Fatalf("YARN allocation = %v, want executor 0 (data-unaware)", owned)
	}
}

func TestCustodyEmitsHints(t *testing.T) {
	env := newFakeEnv(6, 1, 1)
	a := env.addApp("a")
	f, _ := env.nn.Create("in", 2*128<<20)
	var tasks []*app.Task
	job := &app.Job{ID: 1, App: a}
	stage := &app.Stage{ID: 0, Job: job}
	for i, b := range f.Blocks {
		tasks = append(tasks, &app.Task{Job: job, Stage: stage, Index: i, Block: b.ID, State: app.TaskReady, RanOnNode: -1})
	}
	env.pending[a.ID] = tasks
	m := NewCustody()
	m.OnJobSubmit(env, a, job)
	if len(env.hints) != 0 {
		t.Fatalf("hints emitted with EmitHints off: %v", env.hints)
	}
	// Reset and re-run with hints on.
	env2 := newFakeEnv(6, 1, 1)
	a2 := env2.addApp("a")
	f2, _ := env2.nn.Create("in", 2*128<<20)
	var tasks2 []*app.Task
	job2 := &app.Job{ID: 1, App: a2}
	stage2 := &app.Stage{ID: 0, Job: job2}
	for i, b := range f2.Blocks {
		tasks2 = append(tasks2, &app.Task{Job: job2, Stage: stage2, Index: i, Block: b.ID, State: app.TaskReady, RanOnNode: -1})
	}
	env2.pending[a2.ID] = tasks2
	m2 := NewCustody()
	m2.EmitHints = true
	m2.OnJobSubmit(env2, a2, job2)
	if len(env2.hints) == 0 {
		t.Fatal("no hints emitted with EmitHints on")
	}
}

// TestCustodyWarmRoundAllocs pins the heap allocations of a Custody round
// on an unchanged environment once the manager's scratch is warm. Two apps
// share 8 two-executor nodes; each has two jobs of input tasks over a
// 12-block file, more than its budget covers, so every round keeps the held
// executors, rebuilds the demand of the uncovered tasks and runs the policy
// over an empty idle pool. What remains per round:
//   - one slice per app from PendingInputTasks: the environment's copy of
//     the app's queue (the driver's is the task scheduler's PendingTasks);
//   - one slice per uncovered task from NameNode.Locations in demandNodes,
//     which becomes the task's preferred nodes.
//
// The plan is empty, so the policy allocates no Assignments slice: a plan
// that granted anything would change the environment.
func TestCustodyWarmRoundAllocs(t *testing.T) {
	env := newFakeEnv(8, 2, 1)
	f, err := env.nn.Create("in", 12*128<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		a := env.addApp("a")
		for k, b := range f.Blocks {
			env.pending[a.ID] = append(env.pending[a.ID], mkTask(a, 1+k%2, k, b.ID))
		}
	}
	m := NewCustody()
	m.Reallocate(env)
	m.Reallocate(env)
	held := [2]int{env.cl.OwnedCount(0), env.cl.OwnedCount(1)}
	uncovered := 0
	for _, d := range m.demandBuf {
		for _, jd := range d.Jobs {
			uncovered += len(jd.Tasks)
		}
	}
	if held[0] == 0 || held[1] == 0 || uncovered == 0 {
		t.Fatalf("apps hold %v executors with %d uncovered tasks; want both holding and demand left", held, uncovered)
	}
	want := float64(len(env.apps) + uncovered)
	if n := testing.AllocsPerRun(50, func() { m.Reallocate(env) }); n != want {
		t.Fatalf("warm Custody round made %v allocs, want %v (%d apps, %d uncovered tasks)",
			n, want, len(env.apps), uncovered)
	}
	if got := [2]int{env.cl.OwnedCount(0), env.cl.OwnedCount(1)}; got != held {
		t.Fatalf("rounds on an unchanged environment moved executors: held %v, then %v", held, got)
	}
}
