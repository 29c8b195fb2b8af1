package manager

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
)

// Custody is the paper's data-aware manager (§IV–§V). Allocation is deferred
// until users submit jobs; on every job arrival or departure it re-evaluates
// demand, consults the NameNode for the blocks of pending input tasks, and
// runs the two-level allocation of internal/core over the idle executors.
type Custody struct {
	// Opts configures the core allocator (intra-app strategy, budget fill).
	Opts core.Options
	// EmitHints forwards the plan's per-task executor choices to the
	// applications as scheduling suggestions (§V). Off by default: the
	// paper's experiments leave applications on unmodified delay
	// scheduling, which ignores the suggestions.
	EmitHints bool
	// SelfCheck re-runs every allocation round through the frozen
	// core.AllocateReference oracle and records the first divergence in
	// SelfCheckErr. Testing hook: the model-based checker turns it on so a
	// wrong tie-break pick surfaces as an invariant violation at the round
	// that introduced it instead of a silent misallocation rounds later.
	SelfCheck bool
	// SelfCheckErr holds the first divergence SelfCheck found, or nil.
	SelfCheckErr error
	// Policy allocates the idle executors each round (DESIGN.md §16): the
	// manager snapshots demand and idle executors and hands the snapshot to
	// it. NewCustody installs the paper's Algorithms 1+2
	// (policy.CustodyPolicy); the SelfCheck reference-oracle differential is
	// a Custody-specific invariant and runs only while the active policy is
	// named policy.Custody.
	Policy policy.Policy
	// PlanCheck validates every plan against the policy-generic contract
	// (policy.Validate: executor membership, single ownership, slot and
	// budget bounds, locality integrity, non-starvation), recording the
	// first breach in PlanCheckErr. Testing hook, on in the model checker
	// for every policy including the default.
	PlanCheck bool
	// PlanCheckErr holds the first generic-contract breach, or nil.
	PlanCheckErr error

	// Scratch reused across rounds, so a round on an unchanged environment
	// allocates almost nothing: the per-app plans, the tasks a held
	// executor covers, the executor snapshot, the uncovered tasks sorted by
	// job, the demand with the arenas its job and task lists live in, and,
	// under EmitHints, the pending tasks by (app, job, task index).
	plans     []appPlan
	covered   map[*app.Task]bool
	execBuf   []*cluster.Executor
	byJob     []*app.Task
	demandBuf []core.AppDemand
	jobArena  []core.JobDemand
	taskArena []core.TaskDemand
	idleBuf   []core.ExecInfo
	byKey     map[[3]int]*app.Task
}

// appPlan is one app's share of a round: its unlaunched input tasks, the
// executors it holds after phase 1, and where its uncovered tasks sit in
// Custody.byJob.
type appPlan struct {
	pending []*app.Task
	held    int
	lo, hi  int
}

// NewCustody builds the Custody manager with the paper's configuration.
func NewCustody() *Custody {
	return &Custody{Opts: core.DefaultOptions(), Policy: policy.NewCustodyPolicy()}
}

// Name implements Manager.
func (c *Custody) Name() string { return "custody" }

// SetPolicy selects the allocation policy by registry name; "" selects the
// default, policy.Custody.
func (c *Custody) SetPolicy(name string) error {
	if name == "" {
		name = policy.Custody
	}
	p, err := policy.New(name)
	if err != nil {
		return err
	}
	c.Policy = p
	return nil
}

// PolicyName returns the active policy's registry name.
func (c *Custody) PolicyName() string { return c.Policy.Name() }

// Register implements Manager. Custody deliberately allocates nothing at
// registration: "we do not allocate executors until users submit requests"
// (§V).
func (c *Custody) Register(env Env) {}

// OnJobSubmit implements Manager: re-evaluate the demand of all unfinished
// jobs (§IV-C) and reallocate.
func (c *Custody) OnJobSubmit(env Env, a *app.Application, j *app.Job) {
	c.reallocate(env)
}

// OnJobFinish implements Manager: departures free executors; re-evaluate.
func (c *Custody) OnJobFinish(env Env, a *app.Application, j *app.Job) {
	c.reallocate(env)
}

// OnExecutorIdle implements Manager. Custody is invoked "whenever new jobs
// are submitted into the system or existing jobs finish and leave the
// system" (§V) — not on every task completion. An idle executor therefore
// stays with its owner while the owner still has queued work; only when the
// owner has nothing left does the driver's release message ("a specific
// executor can be released", §V) trigger a reallocation.
func (c *Custody) OnExecutorIdle(env Env, e *cluster.Executor) {
	owner := e.Owner()
	if owner == cluster.NoApp {
		return
	}
	for _, a := range env.Apps() {
		if a.ID == owner {
			if env.PendingCount(a) > 0 {
				return // the owner will reuse it
			}
			break
		}
	}
	c.reallocate(env)
}

// OnNodeFail implements Manager: replace the lost executors data-aware.
func (c *Custody) OnNodeFail(env Env, node int) {
	c.reallocate(env)
}

// OnExecutorFail implements ExecutorFaultHandler: an executor died
// mid-plan; re-run allocation so the lost capacity is replaced data-aware
// instead of leaving its covered tasks stranded.
func (c *Custody) OnExecutorFail(env Env, execID int) {
	c.reallocate(env)
}

// OnExecutorRecover implements ExecutorFaultHandler: restored capacity may
// carry locality; re-plan to use it.
func (c *Custody) OnExecutorRecover(env Env, execID int) {
	c.reallocate(env)
}

// Reallocate forces one full allocation round outside the usual event
// callbacks. The model-based checker (internal/modelcheck) uses it to drive
// rounds at arbitrary points in a command sequence; it is equivalent to the
// round every On* callback triggers.
func (c *Custody) Reallocate(env Env) { c.reallocate(env) }

// reallocate snapshots demand, reclaims useless idle executors, and applies
// Algorithms 1+2.
func (c *Custody) reallocate(env Env) {
	env.Collector().Reallocations++
	cl := env.Cluster()
	apps := env.Apps()
	share := fairShare(env)

	plans := slices.Grow(c.plans[:0], len(apps))[:len(apps)]
	c.plans = plans
	if c.covered == nil {
		c.covered = map[*app.Task]bool{}
	}
	covered := c.covered
	clear(covered)
	for i, a := range apps {
		plans[i] = appPlan{pending: env.PendingInputTasks(a)}
	}

	// Phase 1: decide which held idle executors to keep. Busy executors
	// cannot move; their free slots already cover pending local tasks. An
	// idle executor stays with its app if its node stores the block of a
	// pending task not yet covered, up to its slot capacity and the app's
	// budget, instead of churning through the pool every round; otherwise
	// it returns to the pool.
	coverTasks := func(p *appPlan, node, slots int) int {
		n := 0
		for _, t := range p.pending {
			if n == slots {
				break
			}
			if covered[t] {
				continue
			}
			if onNode(env, t, node) {
				covered[t] = true
				n++
			}
		}
		return n
	}
	for i, a := range apps {
		p := &plans[i]
		owned := cl.AppendOwned(c.execBuf[:0], a.ID)
		c.execBuf = owned
		kept := 0
		busy := 0
		for _, e := range owned {
			if e.Running() > 0 {
				busy++
			}
		}
		for _, e := range owned {
			if e.Running() > 0 {
				// Free slots on busy executors serve pending work in place.
				coverTasks(p, e.Node.ID, e.FreeSlots())
				continue
			}
			if busy+kept < share && coverTasks(p, e.Node.ID, e.Slots()) > 0 {
				kept++
			} else {
				env.Release(e)
				env.Collector().ExecutorMigrations++
			}
		}
		p.held = busy + kept
	}

	// Phase 2: build core demands from uncovered pending tasks, grouped by
	// job in job-ID order, each job's tasks in pending order; history comes
	// from the app's finished-job accounting. Both arenas are sized for
	// every uncovered task first (a job has at least one), so the job and
	// task lists handed to the policy never move.
	byJob := c.byJob[:0]
	for i := range plans {
		p := &plans[i]
		p.lo = len(byJob)
		for _, t := range p.pending {
			if !covered[t] {
				byJob = append(byJob, t)
			}
		}
		p.hi = len(byJob)
		slices.SortStableFunc(byJob[p.lo:p.hi], func(x, y *app.Task) int { return cmp.Compare(x.Job.ID, y.Job.ID) })
	}
	c.byJob = byJob
	jobs := slices.Grow(c.jobArena[:0], len(byJob))
	tds := slices.Grow(c.taskArena[:0], len(byJob))
	demands := c.demandBuf[:0]
	for i, a := range apps {
		p := &plans[i]
		d := core.AppDemand{
			App:        int(a.ID),
			Budget:     share,
			Held:       p.held,
			ExtraTasks: env.PendingCount(a) - len(p.pending),
			LocalJobs:  a.LocalJobs,
			TotalJobs:  a.TotalJobs,
			LocalTasks: a.LocalTasks,
			TotalTasks: a.TotalTasks,
		}
		jb, tb := len(jobs), 0
		for k, t := range byJob[p.lo:p.hi] {
			if k == 0 || t.Job.ID != jobs[len(jobs)-1].Job {
				jobs = append(jobs, core.JobDemand{Job: t.Job.ID})
				tb = len(tds)
			}
			nodes, fb := demandNodes(env, t)
			tds = append(tds, core.TaskDemand{
				Task:     t.Index,
				Block:    t.Block,
				Nodes:    nodes,
				Fallback: fb,
				Warm:     warmNodes(env, t, nodes, fb),
			})
			jobs[len(jobs)-1].Tasks = tds[tb:len(tds):len(tds)]
		}
		if len(jobs) > jb {
			d.Jobs = jobs[jb:len(jobs):len(jobs)]
		}
		demands = append(demands, d)
	}
	c.jobArena = jobs
	c.taskArena = tds

	// Phase 3: allocate idle executors (slot-aware) through the policy.
	idle := c.idleBuf[:0]
	free := cl.AppendFree(c.execBuf[:0])
	c.execBuf = free
	for _, e := range free {
		idle = append(idle, core.ExecInfo{ID: e.ID, Node: e.Node.ID, Slots: e.Slots()})
	}
	plan := c.Policy.Allocate(demands, idle, c.Opts)
	c.demandBuf = demands
	c.idleBuf = idle
	if c.PlanCheck && c.PlanCheckErr == nil {
		c.PlanCheckErr = policy.Validate(demands, idle, plan, c.Opts)
	}
	if c.SelfCheck && c.SelfCheckErr == nil && c.PolicyName() == policy.Custody {
		refOpts := c.Opts
		refOpts.Observer = nil
		want := core.AllocateReference(demands, idle, refOpts)
		if got, wantS := fmt.Sprintf("%#v", plan), fmt.Sprintf("%#v", want); got != wantS {
			c.SelfCheckErr = fmt.Errorf("allocation diverged from reference oracle at reallocation %d:\n got  %s\n want %s",
				env.Collector().Reallocations, got, wantS)
		}
	}
	if c.EmitHints {
		if c.byKey == nil {
			c.byKey = map[[3]int]*app.Task{}
		}
		clear(c.byKey)
		for i, a := range apps {
			for _, t := range plans[i].pending {
				c.byKey[[3]int{int(a.ID), t.Job.ID, t.Index}] = t
			}
		}
	}
	for _, as := range plan.Assignments {
		e := cl.Executor(as.Exec)
		if e.Owner() != cluster.AppID(as.App) {
			env.Allocate(e, cluster.AppID(as.App))
		}
		if c.EmitHints && as.Local {
			if t, ok := c.byKey[[3]int{as.App, as.Job, as.Task}]; ok {
				env.Hint(t, as.Exec)
			}
		}
	}
}

// demandNodes returns the preferred nodes of a task's block. When every
// advertised replica holder is usable — the healthy-cluster fast path — the
// NameNode's answer passes through untouched, preserving the paper's
// behavior exactly. When locality metadata is stale or holders are down,
// the preference degrades gracefully: usable replica holders first, then
// usable nodes rack-local to a replica, then location-free. fallback is
// true only in the rack-local case, where the returned nodes are stand-ins
// rather than replica holders (a grant there is a rack-fallback grant in
// the provenance log, not a local-block one).
// warmNodes marks which preferred nodes hold the task's block warm in their
// block cache — provenance only (grants on warm nodes are tagged cache-hit
// in obsv). Nil whenever the cache tier is disabled (the default), no node
// is warm, or the nodes are rack-local stand-ins rather than holders, so
// the cacheless demand build stays allocation-free.
func warmNodes(env Env, t *app.Task, nodes []int, fallback bool) []bool {
	nn := env.NameNode()
	if fallback || !nn.CacheEnabled() {
		return nil
	}
	var warm []bool
	for i, n := range nodes {
		if nn.CacheContains(n, t.Block) {
			if warm == nil {
				warm = make([]bool, len(nodes))
			}
			warm[i] = true
		}
	}
	return warm
}

func demandNodes(env Env, t *app.Task) (nodes []int, fallback bool) {
	nn := env.NameNode()
	cl := env.Cluster()
	locs := nn.Locations(t.Block)
	usable := func(n int) bool { return cl.NodeAlive(n) && nn.DataNode(n).Alive() }
	ok := true
	for _, n := range locs {
		if !usable(n) {
			ok = false
			break
		}
	}
	if ok {
		return locs, false
	}
	fb := core.FallbackNodes(locs, usable, nn.Rack, cl.NumNodes())
	// FallbackNodes returns either the usable subset of the advertised
	// holders (still genuinely local) or rack-local non-holders; the two
	// sets are disjoint, so membership of the first element decides.
	if len(fb) > 0 && !containsNode(locs, fb[0]) {
		return fb, true
	}
	return fb, false
}

// containsNode reports whether nodes contains n (replica lists are short).
//
//custody:noalloc
func containsNode(nodes []int, n int) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}

// onNode reports whether the NameNode lists a replica of the task's block on
// the node.
func onNode(env Env, t *app.Task, node int) bool {
	return t.IsInput() && env.NameNode().ReplicaOn(t.Block, node)
}
