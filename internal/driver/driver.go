package driver

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scheduler"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Driver runs one simulated cluster. It implements manager.Env.
type Driver struct {
	cfg Config

	eng    *event.Engine
	fabric *netsim.Fabric
	nn     *hdfs.NameNode
	loc    *probeCounter // nn as the task schedulers see it
	cl     *cluster.Cluster
	rng    *xrand.Rand
	col    *metrics.Collector

	apps   []*app.Application
	scheds map[cluster.AppID]scheduler.Scheduler

	tr        trace.Tracer
	hints     map[*app.Task]int
	running   map[*app.Task][]*attempt
	execReady []float64             // executor ID → time it becomes usable
	starting  []int                 // executors whose execReady may be ahead; every one that is ahead is here
	prevOwner map[int]cluster.AppID // executor ID → last owner
	offers    int                   // Scheduler.Offer calls
	wake      *event.Timer
	started   bool
	inManager bool // re-entrancy guard for manager callbacks

	// ownedBufs holds one executor buffer per dispatch nesting depth;
	// dispatchDepth is the number of dispatch calls in progress.
	ownedBufs     [][]*cluster.Executor
	dispatchDepth int

	// Chaos/resilience state. All maps stay empty (and cost nothing) until
	// faults are injected or resilience knobs are enabled.
	failedNodes map[int]bool               // nodes taken down via InjectNodeFail
	degraded    map[int]bool               // nodes with degraded links
	slowDisks   map[int]bool               // nodes with a slowed disk
	taskFails   map[*app.Task]int          // failures per task (backoff exponent)
	backoff     map[*app.Task]*event.Timer // tasks waiting out a retry delay
	badSrc      map[*app.Task]map[int]bool // replica sources this task failed against
	failTimes   map[int][]float64          // node → recent task-failure times
	blacklist   map[int]float64            // node → excluded-until time
	recovering  map[*app.Task]float64      // fault-interrupted task → fault time
	repl        []*replFlow                // tracked re-replication transfers
	replBase    map[hdfs.BlockID]int       // registered replicas at first audit, minus commits
	replDone    map[hdfs.BlockID]int       // committed re-replications per block
}

// replFlow tracks one in-flight re-replication transfer; on completion the
// new replica is committed with the NameNode.
type replFlow struct {
	cp   hdfs.ReplicaCopy
	flow *netsim.Flow
}

// attempt is one in-flight execution of a task (original or speculative).
type attempt struct {
	task  *app.Task
	exec  *cluster.Executor
	flows []*netsim.Flow
	timer *event.Timer
	spec  bool

	launched  float64
	readDone  float64
	remaining int // pending fetch flows
	dead      bool
}

// New builds a driver. Panics on invalid configuration (programmer error).
func New(cfg Config) *Driver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := event.NewEngine()
	rng := xrand.New(cfg.Seed)
	opts := []hdfs.Option{
		hdfs.WithBlockSize(cfg.BlockSize),
		hdfs.WithReplication(cfg.Replication),
		hdfs.WithRacks(cfg.RackSize),
	}
	if cfg.Placement != nil {
		opts = append(opts, hdfs.WithPolicy(cfg.Placement))
	}
	if cfg.CacheBytes > 0 {
		opts = append(opts, hdfs.WithBlockCache(cfg.CacheBytes, cfg.CachePolicy))
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = trace.Nop{}
	}
	if cfg.Obsv != nil && cfg.Obsv.Clock == nil {
		cfg.Obsv.Clock = eng.Now // stamp records with simulated time
	}
	fabric := netsim.NewFabric(eng, cfg.Nodes, cfg.Net)
	cl := cluster.New(cfg.clusterConfig())
	for _, n := range cl.Nodes() {
		if n.Speed != 1 && n.Speed > 0 {
			fabric.SetDiskSpeed(n.ID, n.Speed)
		}
	}
	nn := hdfs.NewNameNode(cfg.Nodes, rng, opts...)
	return &Driver{
		tr:        tr,
		cfg:       cfg,
		eng:       eng,
		fabric:    fabric,
		nn:        nn,
		loc:       &probeCounter{NameNode: nn},
		cl:        cl,
		rng:       rng,
		col:       metrics.NewCollector(),
		scheds:    map[cluster.AppID]scheduler.Scheduler{},
		hints:     map[*app.Task]int{},
		running:   map[*app.Task][]*attempt{},
		execReady: make([]float64, cl.TotalExecutors()),
		prevOwner: map[int]cluster.AppID{},

		failedNodes: map[int]bool{},
		degraded:    map[int]bool{},
		slowDisks:   map[int]bool{},
		taskFails:   map[*app.Task]int{},
		backoff:     map[*app.Task]*event.Timer{},
		badSrc:      map[*app.Task]map[int]bool{},
		failTimes:   map[int][]float64{},
		blacklist:   map[int]float64{},
		recovering:  map[*app.Task]float64{},
		replBase:    map[hdfs.BlockID]int{},
		replDone:    map[hdfs.BlockID]int{},
	}
}

// Engine exposes the event engine (examples and tests).
func (d *Driver) Engine() *event.Engine { return d.eng }

// Fabric exposes the network fabric (chaos injection and tests).
func (d *Driver) Fabric() *netsim.Fabric { return d.fabric }

// Collector returns the metrics collector (implements manager.Env).
func (d *Driver) Collector() *metrics.Collector { return d.col }

// CreateInput stores a file in the simulated HDFS.
func (d *Driver) CreateInput(name string, size int64) (*hdfs.File, error) {
	return d.nn.Create(name, size)
}

// RegisterApp creates an application with its own task scheduler.
func (d *Driver) RegisterApp(name string) *app.Application {
	if d.started {
		panic("driver: RegisterApp after Start")
	}
	id := cluster.AppID(len(d.apps))
	a := app.NewApplication(id, name)
	d.apps = append(d.apps, a)
	var s scheduler.Scheduler
	switch d.cfg.Scheduler {
	case SchedFIFO:
		s = scheduler.NewFIFO()
	case SchedLocalityHard:
		s = scheduler.NewLocalityHard(d.loc)
	case SchedDelayTaskSet:
		s = scheduler.NewDelayTaskSet(d.loc, d.cfg.LocalityWait)
	case SchedQuincy:
		s = scheduler.NewQuincy(d.loc, func() []*cluster.Executor { return d.cl.Owned(id) })
	default:
		ds := scheduler.NewDelay(d.loc, d.cfg.LocalityWait)
		ds.Hint = func(t *app.Task) (int, bool) {
			e, ok := d.hints[t]
			return e, ok
		}
		s = ds
	}
	d.scheds[id] = s
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.AppRegister, App: int(id), Job: -1, Stage: -1, Task: -1, Exec: -1, Node: -1})
	return a
}

// Start registers the applications with the cluster manager. Call after all
// RegisterApp calls and before Run.
func (d *Driver) Start() {
	if d.started {
		panic("driver: Start called twice")
	}
	d.started = true
	d.cfg.Manager.Register(d)
}

// SubmitJobAt schedules a job submission at the given simulated time.
func (d *Driver) SubmitJobAt(at float64, a *app.Application, j *app.Job) {
	d.eng.At(at, func() { d.submitJob(a, j) })
}

// Run drives the simulation to completion and returns the collector.
func (d *Driver) Run() *metrics.Collector {
	if !d.started {
		d.Start()
	}
	d.eng.Run()
	if err := d.cl.Validate(); err != nil {
		panic(fmt.Sprintf("driver: cluster invariant broken after run: %v", err))
	}
	return d.col
}

// submitJob delivers a job to its application, lets the manager react
// (Custody allocates here, §V), and dispatches tasks.
func (d *Driver) submitJob(a *app.Application, j *app.Job) {
	now := d.eng.Now()
	a.AddJob(j, now)
	// Queue the ready input tasks with the app's scheduler.
	var ready []*app.Task
	for _, s := range j.Stages {
		if !s.Ready() {
			continue
		}
		for _, t := range s.Tasks {
			if t.State == app.TaskReady {
				t.ReadyAt = now
				ready = append(ready, t)
			}
		}
	}
	d.scheds[a.ID].Submit(ready, now)
	d.tr.Emit(trace.Event{Time: now, Kind: trace.JobSubmit, App: int(a.ID), Job: j.ID, Stage: -1, Task: -1, Exec: -1, Node: -1})
	d.managerCall(func() { d.cfg.Manager.OnJobSubmit(d, a, j) })
	d.dispatch()
}

// dispatch offers idle executors to their owners' schedulers until no more
// tasks launch, then arms the wake-up timer for locality-wait expiries. The
// flows of every launch start in one fabric batch: one rate recompute for
// the whole pass. Each nesting depth borrows its own buffer for an app's
// executors, so a dispatch re-entered from a launch leaves the outer
// snapshot alone.
func (d *Driver) dispatch() {
	now := d.eng.Now()
	depth := d.dispatchDepth
	if depth == len(d.ownedBufs) {
		d.ownedBufs = append(d.ownedBufs, nil)
	}
	owned := d.ownedBufs[depth]
	d.dispatchDepth++
	d.fabric.Batch(func() {
		progress := true
		for progress {
			progress = false
			for _, a := range d.apps {
				sched := d.scheds[a.ID]
				if sched.Pending() == 0 {
					continue
				}
				owned = d.cl.AppendOwned(owned[:0], a.ID)
				for _, e := range owned {
					if e.FreeSlots() <= 0 {
						continue
					}
					if d.execReady[e.ID] > now {
						continue // still starting up
					}
					if d.nodeExcluded(e.Node.ID, now) {
						continue // blacklisted after repeated failures
					}
					d.offers++
					t := sched.Offer(e, now)
					if t == nil {
						continue
					}
					d.launch(t, e, false)
					progress = true
				}
			}
		}
	})
	d.dispatchDepth--
	d.ownedBufs[depth] = owned
	d.armWake()
}

// armWake schedules a dispatch at the earliest locality-wait expiry or
// executor startup completion. Only executors still starting up are
// visited; one whose ready time has passed leaves the list.
func (d *Driver) armWake() {
	now := d.eng.Now()
	earliest := math.Inf(1)
	for _, a := range d.apps {
		if dl, ok := d.scheds[a.ID].NextDeadline(now); ok && dl < earliest {
			// Only relevant if the app has an idle executor to use then.
			earliest = dl
		}
	}
	for i := 0; i < len(d.starting); {
		id := d.starting[i]
		t := d.execReady[id]
		if t <= now {
			d.starting[i] = d.starting[len(d.starting)-1]
			d.starting = d.starting[:len(d.starting)-1]
			continue
		}
		if t < earliest && d.cl.Executor(id).Owner() != cluster.NoApp {
			earliest = t
		}
		i++
	}
	if math.IsInf(earliest, 1) {
		return
	}
	if d.wake != nil && !d.wake.Cancelled() && d.wake.Time() <= earliest && d.wake.Time() > now {
		return // an earlier or equal wake-up is already armed
	}
	if d.wake != nil {
		d.eng.Cancel(d.wake)
	}
	d.wake = d.eng.At(earliest, func() {
		d.wake = nil
		d.dispatch()
	})
}

// Kick runs one dispatch pass outside the usual event callbacks: idle
// executors are offered to their owners' schedulers until no more tasks
// launch. The model-based checker (internal/modelcheck) calls it after
// forcing an allocation round so granted executors pick up queued work.
func (d *Driver) Kick() { d.dispatch() }

// managerCall invokes a manager callback with re-entrancy protection.
func (d *Driver) managerCall(fn func()) {
	if d.inManager {
		return
	}
	d.inManager = true
	fn()
	d.inManager = false
}

// --- manager.Env implementation ---

// Now implements manager.Env.
func (d *Driver) Now() float64 { return d.eng.Now() }

// Cluster implements manager.Env.
func (d *Driver) Cluster() *cluster.Cluster { return d.cl }

// NameNode implements manager.Env.
func (d *Driver) NameNode() *hdfs.NameNode { return d.nn }

// Apps implements manager.Env.
func (d *Driver) Apps() []*app.Application { return d.apps }

// PendingInputTasks implements manager.Env. It filters the scheduler's
// fresh copy of its queue in place.
func (d *Driver) PendingInputTasks(a *app.Application) []*app.Task {
	tasks := d.scheds[a.ID].PendingTasks()
	out := tasks[:0]
	for _, t := range tasks {
		if t.IsInput() {
			out = append(out, t)
		}
	}
	clear(tasks[len(out):])
	return out
}

// PendingCount implements manager.Env.
func (d *Driver) PendingCount(a *app.Application) int {
	return d.scheds[a.ID].Pending()
}

// Allocate implements manager.Env: assigns a free executor to an app,
// charging a startup delay when ownership changed hands.
func (d *Driver) Allocate(e *cluster.Executor, id cluster.AppID) {
	if err := d.cl.Allocate(e, id); err != nil {
		panic(err)
	}
	if d.cfg.ExecutorStartupSec > 0 {
		if prev, ok := d.prevOwner[e.ID]; !ok || prev != id {
			now := d.eng.Now()
			if d.execReady[e.ID] <= now {
				d.starting = append(d.starting, e.ID)
			}
			d.execReady[e.ID] = now + d.cfg.ExecutorStartupSec
		}
	}
	d.prevOwner[e.ID] = id
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.ExecAlloc, App: int(id), Job: -1, Stage: -1, Task: -1, Exec: e.ID, Node: e.Node.ID})
}

// Release implements manager.Env.
func (d *Driver) Release(e *cluster.Executor) {
	owner := int(e.Owner())
	if err := d.cl.Release(e); err != nil {
		panic(err)
	}
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.ExecRelease, App: owner, Job: -1, Stage: -1, Task: -1, Exec: e.ID, Node: e.Node.ID})
}

// TryLaunch implements manager.Env: offer-based acceptance check.
func (d *Driver) TryLaunch(e *cluster.Executor, a *app.Application) bool {
	if e.Owner() != cluster.NoApp || e.FreeSlots() <= 0 {
		return false
	}
	d.offers++
	t := d.scheds[a.ID].Offer(e, d.eng.Now())
	if t == nil {
		return false
	}
	d.Allocate(e, a.ID)
	d.launch(t, e, false)
	return true
}

// Schedule implements manager.Env.
func (d *Driver) Schedule(delay float64, fn func()) {
	d.eng.Schedule(delay, fn)
}

// Hint implements manager.Env: record a scheduling suggestion for a task.
func (d *Driver) Hint(t *app.Task, execID int) {
	d.hints[t] = execID
	if ds, ok := d.scheds[t.Job.App.ID].(*scheduler.Delay); ok {
		ds.Hinted(t, execID)
	}
}

// SchedulerWork returns the run's task-scheduler work counts: offers made to
// the schedulers (by dispatch and TryLaunch) and the NameNode locality
// queries (Locations, ReplicaOn, HasReplica) the schedulers issued.
func (d *Driver) SchedulerWork() (offers, probes int) { return d.offers, d.loc.probes }

// probeCounter is the NameNode as the task schedulers see it: it counts
// their locality queries and passes everything else through.
type probeCounter struct {
	*hdfs.NameNode
	probes int
}

func (p *probeCounter) Locations(id hdfs.BlockID) []int {
	p.probes++
	return p.NameNode.Locations(id)
}

func (p *probeCounter) ReplicaOn(id hdfs.BlockID, node int) bool {
	p.probes++
	return p.NameNode.ReplicaOn(id, node)
}

func (p *probeCounter) HasReplica(id hdfs.BlockID) bool {
	p.probes++
	return p.NameNode.HasReplica(id)
}
