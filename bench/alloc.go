package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/policy"
	"repro/internal/xrand"
)

// allocSpec sizes an allocation workload: a cluster of nodes × 2 executors
// × 2 slots and 8 applications, each holding a number of pending jobs of 40
// input tasks, and the rounds one unit runs after its cold first round. A
// task leaves the demand when a round grants it a local slot, or when its
// job has waited allocWait rounds and launches the rest anywhere, as delay
// scheduling would; a new job arrives whenever an app drops below its
// number of jobs.
type allocSpec struct {
	nodes     int
	jobs      int
	rounds    int
	burst     bool // every executor idle every round, instead of 1% churn
	poolFiles int  // input files jobs read; arrivals pick one at random
}

func allocSize(tiny, burst bool) allocSpec {
	switch {
	case tiny:
		return allocSpec{nodes: 400, jobs: 3, rounds: 4, burst: burst, poolFiles: 8}
	case burst:
		return allocSpec{nodes: 100000, jobs: 30, rounds: 20, burst: true, poolFiles: 256}
	default:
		return allocSpec{nodes: 100000, jobs: 30, rounds: 500, poolFiles: 256}
	}
}

const (
	allocExecsPerNode = 2
	allocSlots        = 2
	allocApps         = 8
	allocTasksPerJob  = 40
	allocRackSize     = 20
	allocWait         = 8
)

// genJob is one pending job of the demand generator; demand holds exactly
// its tasks not yet granted a local slot.
type genJob struct {
	id     int
	age    int  // rounds since arrival
	remote bool // some task launched without locality
	demand []core.TaskDemand
}

type genApp struct {
	jobs    []*genJob
	jobBuf  []core.JobDemand
	nextJob int
	held    int // executors the app owns and keeps busy

	localJobs, totalJobs, localTasks, totalTasks int
}

// allocInstance is the demand process around one allocation session. Its
// generator (freeing executors, building demand, applying plans, job
// arrivals) and the plan checks run outside the timed Allocate calls.
type allocInstance struct {
	sp      allocSpec
	rng     *xrand.Rand
	pool    [][]core.TaskDemand // per input file, one demand per block
	owner   []int32             // executor → owning app, -1 idle
	busy    []int32             // executors owned by an app, any order
	carry   []int32             // idle executors no app claimed last round
	apps    []genApp
	demands []core.AppDemand
	idle    []core.ExecInfo
	alloc   allocator
	opts    core.Options
	round   int
	tr      *tracer
	pre     *meter // the cold first round, run during set-up
}

func allocSetup(sp allocSpec, seed uint64) setupFunc {
	return func(tr *tracer) (instance, error) {
		rng := xrand.New(seed)
		place := rackPlacement{rng: rng.Fork("placement"), rackSize: allocRackSize}
		nn := hdfs.NewNameNode(sp.nodes, rng, hdfs.WithRacks(allocRackSize), hdfs.WithPolicy(place))
		a := &allocInstance{sp: sp, rng: rng.Fork("demand"), opts: core.DefaultOptions(), tr: tr}
		for i := 0; i < sp.poolFiles; i++ {
			f, err := nn.Create(fmt.Sprintf("pool-%04d", i), allocTasksPerJob*nn.BlockSize)
			if err != nil {
				return nil, fmt.Errorf("alloc input %d: %w", i, err)
			}
			tasks := make([]core.TaskDemand, len(f.Blocks))
			for k, b := range f.Blocks {
				tasks[k] = core.TaskDemand{Task: k, Block: b.ID, Nodes: nn.Locations(b.ID)}
			}
			a.pool = append(a.pool, tasks)
		}
		execs := sp.nodes * allocExecsPerNode
		a.owner = make([]int32, execs)
		a.apps = make([]genApp, allocApps)
		if sp.burst {
			for e := 0; e < execs; e++ {
				a.owner[e] = -1
				a.idle = append(a.idle, core.ExecInfo{ID: e, Node: e / allocExecsPerNode, Slots: allocSlots})
			}
		} else {
			// Start from a full cluster, every app at its budget.
			for i, e := range a.rng.Perm(execs) {
				a.owner[e] = int32(i % allocApps)
				a.busy = append(a.busy, int32(e))
				a.apps[i%allocApps].held++
			}
		}
		for i := range a.apps {
			a.arrive(i)
		}
		if tr != nil {
			a.alloc = newTracedPolicy(tr)
		} else {
			a.alloc = core.NewSession()
		}
		a.pre = newMeter(nil, newHostSpeed(), false)
		a.step(a.pre)
		return a, nil
	}
}

// arrive tops an app up to its pending-job count with fresh jobs.
func (a *allocInstance) arrive(ai int) {
	g := &a.apps[ai]
	for len(g.jobs) < a.sp.jobs {
		src := a.pool[a.rng.Intn(len(a.pool))]
		g.jobs = append(g.jobs, &genJob{id: g.nextJob, demand: append([]core.TaskDemand(nil), src...)})
		g.nextJob++
	}
}

// step runs one allocation round.
func (a *allocInstance) step(m *meter) {
	execs := len(a.owner)
	if !a.sp.burst {
		ids := a.carry
		for k := 0; k < execs/100; k++ {
			i := a.rng.Intn(len(a.busy))
			e := a.busy[i]
			a.busy[i] = a.busy[len(a.busy)-1]
			a.busy = a.busy[:len(a.busy)-1]
			a.apps[a.owner[e]].held--
			a.owner[e] = -1
			ids = append(ids, e)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		a.idle = a.idle[:0]
		for _, e := range ids {
			a.idle = append(a.idle, core.ExecInfo{ID: int(e), Node: int(e) / allocExecsPerNode, Slots: allocSlots})
		}
		a.carry = ids[:0]
	}
	a.demands = a.demands[:0]
	for ai := range a.apps {
		g := &a.apps[ai]
		g.jobBuf = g.jobBuf[:0]
		for _, j := range g.jobs {
			g.jobBuf = append(g.jobBuf, core.JobDemand{Job: j.id, Tasks: j.demand})
		}
		a.demands = append(a.demands, core.AppDemand{
			App: ai, Budget: execs / allocApps, Held: g.held, Jobs: g.jobBuf,
			LocalJobs: g.localJobs, TotalJobs: g.totalJobs,
			LocalTasks: g.localTasks, TotalTasks: g.totalTasks,
		})
	}

	if a.tr != nil {
		a.tr.unit = a.round
	}
	t := m.start()
	plan := a.alloc.Allocate(a.demands, a.idle, a.opts)
	m.lat = append(m.lat, m.stop(t))
	m.work++

	err := policy.Validate(a.demands, a.idle, plan, a.opts)
	m.check(err == nil, "round %d: %v", a.round, err)
	for _, as := range plan.Assignments {
		m.dig.int(as.App)
		m.dig.int(as.Exec)
		m.dig.int(as.Job)
		m.dig.int(as.Task)
		if as.Local {
			m.dig.int(1)
			a.launch(as.App, as.Job, as.Task)
		} else {
			m.dig.int(0)
		}
		if !a.sp.burst && a.owner[as.Exec] == -1 {
			a.owner[as.Exec] = int32(as.App)
			a.busy = append(a.busy, int32(as.Exec))
			a.apps[as.App].held++
		}
	}
	if !a.sp.burst {
		for _, e := range a.idle {
			if a.owner[e.ID] == -1 {
				a.carry = append(a.carry, int32(e.ID))
			}
		}
	}
	for ai := range a.apps {
		g := &a.apps[ai]
		kept := g.jobs[:0]
		for _, j := range g.jobs {
			if j.age++; j.age >= allocWait && len(j.demand) > 0 {
				g.totalTasks += len(j.demand)
				j.demand, j.remote = nil, true
			}
			if len(j.demand) > 0 {
				kept = append(kept, j)
				continue
			}
			g.totalJobs++
			if !j.remote {
				g.localJobs++
			}
		}
		g.jobs = kept
		a.arrive(ai)
	}
	a.round++
}

// launch removes a locally granted task from its job's demand.
func (a *allocInstance) launch(ai, job, task int) {
	g := &a.apps[ai]
	for _, j := range g.jobs {
		if j.id != job {
			continue
		}
		for k := range j.demand {
			if j.demand[k].Task == task {
				j.demand = append(j.demand[:k], j.demand[k+1:]...)
				g.localTasks++
				g.totalTasks++
				return
			}
		}
	}
}

func (a *allocInstance) run(m *meter) error {
	m.attempted, m.failed = a.pre.attempted, a.pre.failed
	m.problems = a.pre.problems
	m.dig = a.pre.dig
	for r := 0; r < a.sp.rounds; r++ {
		a.step(m)
	}
	if a.tr == nil {
		m.heapMB = liveHeapMB()
	}
	return nil
}

func (a *allocInstance) close() error { return nil }

// rackPlacement places replicas the way HDFS does, in constant time: the
// first on a random node, the second on another rack, the third on the
// second's rack. The NameNode's own policies scan every DataNode per
// replica, which at 100k nodes would make set-up take minutes. It assumes
// full racks, which allocSpec sizes guarantee.
type rackPlacement struct {
	rng      *xrand.Rand
	rackSize int
}

func (rackPlacement) Name() string { return "bench-rack-aware" }

func (p rackPlacement) Place(nn *hdfs.NameNode, _ *hdfs.Block, replicas int) ([]int, error) {
	n := nn.Nodes()
	if n < 2*p.rackSize {
		return nil, fmt.Errorf("rack placement needs two full racks, have %d nodes", n)
	}
	first := p.rng.Intn(n)
	out := []int{first}
	if replicas < 2 {
		return out, nil
	}
	second := p.rng.Intn(n)
	for nn.Rack(second) == nn.Rack(first) {
		second = p.rng.Intn(n)
	}
	out = append(out, second)
	if replicas >= 3 {
		third := nn.Rack(second)*p.rackSize + p.rng.Intn(p.rackSize-1)
		if third >= second {
			third++
		}
		out = append(out, third)
	}
	return out, nil
}
