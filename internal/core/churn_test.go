package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/hdfs"
	"repro/internal/xrand"
)

// churnOptSets are FuzzAllocateEquivalence's option sets plus a sharded
// build, whose merge pass seeds the job counters on a path of its own.
var churnOptSets = []Options{
	DefaultOptions(),
	{FillToBudget: false},
	{FillToBudget: true, Intra: FairnessIntra{}},
	{FillToBudget: true, Shards: 3},
}

// churnCluster plays the manager around a warm Session: it owns the demand,
// the idle pool and the app holding each busy executor, so that between
// rounds it can release executors back to the pool the way finishing tasks
// do. App IDs are their positions. Every choice comes from intn.
type churnCluster struct {
	intn         func(n int) int
	nodes        int
	execsPerNode int
	jobs         int // pending jobs per app; arrivals top apps back up
	tasks        int // at most this many tasks per job
	reps         int // replica nodes per task
	jobIDMod     int // when > 0, job IDs repeat modulo it

	apps    []AppDemand
	idle    []ExecInfo
	owner   []int // executor ID → owning app, -1 while idle
	nextJob []int
	block   int
}

// newChurnCluster starts from a full cluster, every executor held by an app
// and every app near its budget, then frees `release` executors.
func newChurnCluster(intn func(int) int, nodes, execsPerNode, nApps, jobs, tasks, reps, jobIDMod, release int) *churnCluster {
	c := &churnCluster{
		intn: intn, nodes: nodes, execsPerNode: execsPerNode,
		jobs: jobs, tasks: tasks, reps: reps, jobIDMod: jobIDMod,
		nextJob: make([]int, nApps),
	}
	nExec := nodes * execsPerNode
	c.owner = make([]int, nExec)
	for ai := 0; ai < nApps; ai++ {
		c.apps = append(c.apps, AppDemand{App: ai, Budget: nExec/nApps + ai%3 - 1})
	}
	for e := range c.owner {
		c.owner[e] = e % nApps
		c.apps[e%nApps].Held++
	}
	c.release(release)
	c.topUp()
	return c
}

func (c *churnCluster) newJob(ai int) JobDemand {
	id := c.nextJob[ai]
	c.nextJob[ai]++
	if c.jobIDMod > 0 {
		id %= c.jobIDMod
	}
	jd := JobDemand{Job: id}
	for k, n := 0, 1+c.intn(c.tasks); k < n; k++ {
		td := TaskDemand{Task: k, Block: hdfs.BlockID(c.block)}
		c.block++
		for r := 0; r < c.reps; r++ {
			td.Nodes = append(td.Nodes, c.intn(c.nodes))
		}
		jd.Tasks = append(jd.Tasks, td)
	}
	return jd
}

// topUp brings every app back to its pending-job count.
func (c *churnCluster) topUp() {
	for ai := range c.apps {
		for len(c.apps[ai].Jobs) < c.jobs {
			c.apps[ai].Jobs = append(c.apps[ai].Jobs, c.newJob(ai))
		}
	}
}

// release frees up to n randomly drawn busy executors.
func (c *churnCluster) release(n int) {
	for k := 0; k < n; k++ {
		e := c.intn(len(c.owner))
		if c.owner[e] < 0 {
			continue
		}
		c.apps[c.owner[e]].Held--
		c.owner[e] = -1
		c.idle = append(c.idle, ExecInfo{ID: e, Node: e / c.execsPerNode, Slots: 2})
	}
}

// advance applies the round's plan with advanceRound, then frees `release`
// executors and lets new jobs arrive.
func (c *churnCluster) advance(plan Plan, release int) {
	for _, as := range plan.Assignments {
		c.owner[as.Exec] = as.App
	}
	c.apps, c.idle = advanceRound(c.apps, c.idle, plan)
	c.release(release)
	c.topUp()
}

// runChurn drives one warm Session per option set through the cluster's
// rounds, requiring byte-identical plans against AllocateReference and
// exact satisfiability counters after every round.
func runChurn(t *testing.T, mk func() *churnCluster, rounds, release int) {
	t.Helper()
	for oi, opts := range churnOptSets {
		c := mk()
		sess := NewSession()
		for round := 0; round < rounds; round++ {
			want := AllocateReference(c.apps, c.idle, opts)
			got := sess.Allocate(c.apps, c.idle, opts)
			ws, gs := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", got)
			if ws != gs {
				t.Fatalf("opts[%d] round %d: plans diverge\nreference: %s\nfast path: %s", oi, round, ws, gs)
			}
			if err := recountCounters(sess); err != nil {
				t.Fatalf("opts[%d] round %d: %v", oi, round, err)
			}
			c.advance(want, release)
		}
	}
}

// recountCounters checks the session's counters, as the last round left
// them, against a recount: each unsatisfied task's availability from the
// pool's node and (node, app) state, each job's and each app's
// satisfiability from its tasks.
func recountCounters(s *Session) error {
	p := s.st.pool
	for _, a := range s.st.apps {
		appOwn, appUnres := 0, 0
		for ji := range a.jobs {
			j := &a.jobs[ji]
			own, unres := 0, 0
			for ti := range j.tasks {
				t := &j.tasks[ti]
				if t.satisfied {
					continue
				}
				var ownAvail, unresAvail int32
				for _, n := range t.d.Nodes {
					sh := p.shardFor(n)
					ni, ok := sh.byNode[n]
					if !ok {
						continue
					}
					if sh.nodes[ni].unres > 0 {
						unresAvail++
					}
					if nai := sh.findNodeApp(ni, a.d.App); nai >= 0 && sh.na[nai].ownFree > 0 {
						ownAvail++
					}
				}
				if t.ownAvail != ownAvail || t.unresAvail != unresAvail {
					return fmt.Errorf("app %d job %d task %d: ownAvail/unresAvail = %d/%d, recount %d/%d",
						a.d.App, j.d.Job, t.d.Task, t.ownAvail, t.unresAvail, ownAvail, unresAvail)
				}
				if ownAvail > 0 {
					own++
				}
				if unresAvail > 0 {
					unres++
				}
			}
			if j.satOwn != own || j.satUnres != unres {
				return fmt.Errorf("app %d job %d (position %d): satOwn/satUnres = %d/%d, recount %d/%d",
					a.d.App, j.d.Job, ji, j.satOwn, j.satUnres, own, unres)
			}
			appOwn += own
			appUnres += unres
		}
		if a.satOwn != appOwn || a.satUnres != appUnres {
			return fmt.Errorf("app %d: satOwn/satUnres = %d/%d, recount %d/%d", a.d.App, a.satOwn, a.satUnres, appOwn, appUnres)
		}
	}
	return nil
}

// TestSessionChurnEquivalence is the warm-session gate at the service's
// regime: 8 apps × 24 jobs on 300 nodes, 1% of the executors released per
// round, 24 rounds through one Session per option set.
func TestSessionChurnEquivalence(t *testing.T) {
	const nodes, execsPerNode = 300, 2
	release := nodes * execsPerNode / 100
	runChurn(t, func() *churnCluster {
		rng := xrand.New(14)
		return newChurnCluster(rng.Intn, nodes, execsPerNode, 8, 24, 8, 3, 0, release)
	}, 24, release)
}

// FuzzSessionChurnEquivalence runs the same gate on fuzzed cluster shapes:
// up to 64 nodes, 8 apps and 32 jobs per app, job IDs that may repeat, and
// six warm rounds. Leading bytes pick the shape; the rest drive the
// instance's choices until they run out, then a fixed-seed generator takes
// over.
func FuzzSessionChurnEquivalence(f *testing.F) {
	f.Add([]byte{19, 1, 7, 24, 5, 2, 0, 3})
	f.Add([]byte{63, 2, 7, 32, 7, 2, 0, 6})
	f.Add([]byte{7, 0, 3, 30, 2, 1, 3, 2})
	f.Add([]byte{3, 1, 1, 12, 0, 0, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		shape := func(def, mod int) int {
			if len(data) == 0 {
				return def
			}
			v := int(data[0]) % mod
			data = data[1:]
			return v
		}
		nodes := shape(19, 64) + 1
		execsPerNode := shape(1, 3) + 1
		nApps := shape(7, 8) + 1
		jobs := shape(24, 33)
		tasks := shape(5, 8) + 1
		reps := shape(2, 3) + 1
		jobIDMod := shape(0, 40)
		release := shape(3, 16)
		rest := data
		runChurn(t, func() *churnCluster {
			stream, rng := rest, xrand.New(7)
			intn := func(n int) int {
				if len(stream) == 0 {
					return rng.Intn(n)
				}
				v := int(stream[0]) % n
				stream = stream[1:]
				return v
			}
			return newChurnCluster(intn, nodes, execsPerNode, nApps, jobs, tasks, reps, jobIDMod, release)
		}, 6, release)
	})
}

// TestPoolExecSize pins poolExec at 40 bytes: the pool holds one per idle
// executor, 200k of them in a 100k-node burst round.
func TestPoolExecSize(t *testing.T) {
	if got := unsafe.Sizeof(poolExec{}); got != 40 {
		t.Fatalf("poolExec is %d bytes, want 40", got)
	}
}

// TestEdgeInstancesMatchReference covers inputs the churn instances never
// draw: node IDs outside the idle-node bitset (negative and huge), and
// duplicate job IDs with equal remaining counts, which Algorithm 2 must
// serve in input order. A node without executors may also carry replicas.
func TestEdgeInstancesMatchReference(t *testing.T) {
	huge := idleBitsLimit + 5
	idle := []ExecInfo{{ID: 0, Node: -3, Slots: 2}, {ID: 1, Node: huge}, {ID: 2, Node: 64}, {ID: 3, Node: 64}, {ID: 4, Node: 7}}
	apps := []AppDemand{
		{App: 0, Budget: 3, Jobs: []JobDemand{
			{Job: 5, Tasks: []TaskDemand{task(0, 10, -3, 9), task(1, 11, huge)}},
			{Job: 5, Tasks: []TaskDemand{task(0, 12, 64), task(1, 13, -3)}},
			{Job: 2, Tasks: []TaskDemand{task(0, 14, 1000), task(1, 15, 64, -3)}},
		}},
		{App: 1, Budget: 2, ExtraTasks: 1, Jobs: []JobDemand{
			{Job: 5, Tasks: []TaskDemand{task(0, 16, 7, huge)}},
			{Job: 5, Tasks: []TaskDemand{task(0, 17, 64)}},
		}},
	}
	for oi, opts := range churnOptSets {
		sess := NewSession()
		a, e := apps, idle
		for round := 0; round < 3; round++ {
			want := AllocateReference(a, e, opts)
			if ws, gs := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", sess.Allocate(a, e, opts)); ws != gs {
				t.Fatalf("opts[%d] round %d: plans diverge\nreference: %s\nfast path: %s", oi, round, ws, gs)
			}
			if err := recountCounters(sess); err != nil {
				t.Fatalf("opts[%d] round %d: %v", oi, round, err)
			}
			a, e = advanceRound(a, e, want)
			if len(want.Assignments) > 0 { // the first grant's task finishes
				as := want.Assignments[0]
				a[as.App].Held--
				e = append(e, ExecInfo{ID: as.Exec, Node: as.Node, Slots: idle[as.Exec].Slots})
			}
		}
	}
}
