// Package policy defines the pluggable allocation-policy boundary between
// the cluster manager and the allocator cores, and implements the tournament
// contenders of DESIGN.md §16: the paper's Algorithm 1+2 ("custody", the
// default), a Quincy-style global min-cost-flow reallocator ("quincy"), a
// per-server-weighted fair allocator after Shan et al. ("wfair"), and a
// locality-aware matching policy after Zhao et al. ("locmatch",
// Hopcroft-Karp warm start + Hungarian refinement).
//
// Every policy consumes the same snapshot the manager hands to
// internal/core — application demands, idle executors, options — and returns
// a core.Plan. Policies are pure and deterministic: the same snapshot yields
// a byte-identical plan, with no wall-clock, map-iteration, or hidden-state
// dependence, so golden traces and the model checker replay exactly.
//
// The package is a leaf layer (enforced by custodylint): it may import the
// other algorithm leaves (core, maxflow, matching, obsv) but never the
// orchestration layers above it.
package policy

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obsv"
)

// Policy is one allocation strategy behind the manager/core boundary. The
// manager snapshots demand and idle executors exactly as it does for the
// default path; the policy decides who gets which executor.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// Allocate returns the round's plan. It must be a pure, deterministic
	// function of its arguments and must honor the generic contract checked
	// by Validate: every granted executor comes from idle, goes to exactly
	// one application, within slot capacity and the executor budget, and
	// Local assignments land on nodes the task's demand advertised.
	Allocate(apps []core.AppDemand, idle []core.ExecInfo, opts core.Options) core.Plan
}

// Custody is the name of the default policy (Algorithm 1+2), the one
// manager.NewCustody installs.
const Custody = "custody"

// Names returns the registered policy names, default first, in the fixed
// order the modelcheck set-policy op indexes.
func Names() []string { return []string{Custody, "quincy", "wfair", "locmatch"} }

// New instantiates a policy by registry name.
func New(name string) (Policy, error) {
	switch name {
	case Custody:
		return NewCustodyPolicy(), nil
	case "quincy":
		return &Quincy{}, nil
	case "wfair":
		return &WeightedFair{}, nil
	case "locmatch":
		return &LocalityMatch{}, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (valid: custody | quincy | wfair | locmatch)", name)
}

// ---- shared per-round working state of the contender policies ----

// taskRef addresses one unsatisfied input task inside an AppDemand.
type taskRef struct {
	job, task int // IDs, for the Assignment
	td        *core.TaskDemand
}

// inst is the scratch state of one allocation round: flattened demand,
// executor bookkeeping, plan accumulation, and observer emission. The
// contender policies are thin strategies over it.
type inst struct {
	apps []core.AppDemand
	idle []core.ExecInfo
	opts core.Options

	tasks [][]taskRef // per app: unsatisfied tasks in (job, task-position) order
	done  [][]bool    // per app: task granted locally this round
	unsat []int       // per app: tasks not yet granted locally

	free      []int // per idle-executor index: slots remaining
	owner     []int // per idle-executor index: app index that claimed it, or -1
	claimed   []int // per app: executors newly claimed this round
	fillGiven []int // per app: preference-free slots granted this round

	byNode map[int][]int // node → idle-executor indexes, ascending

	plan []core.Assignment

	decApp int // app index of the pending observer decision; -1 none
}

func newInst(apps []core.AppDemand, idle []core.ExecInfo, opts core.Options) *inst {
	// Canonicalize input order. The contender policies make the same
	// shuffle-invariance promise core.Session keeps: the app list, each
	// app's job list, and the idle-executor list are order-insensitive
	// input (task order within a job is meaningful and kept). Sorting
	// copies here honors it in one place instead of in every strategy.
	apps = append([]core.AppDemand(nil), apps...)
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].App < apps[j].App })
	for ai := range apps {
		jobs := append([]core.JobDemand(nil), apps[ai].Jobs...)
		sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Job < jobs[j].Job })
		apps[ai].Jobs = jobs
	}
	idle = append([]core.ExecInfo(nil), idle...)
	sort.SliceStable(idle, func(i, j int) bool { return idle[i].ID < idle[j].ID })

	in := &inst{apps: apps, idle: idle, opts: opts, decApp: -1}
	in.tasks = make([][]taskRef, len(apps))
	in.done = make([][]bool, len(apps))
	in.unsat = make([]int, len(apps))
	for ai := range apps {
		for ji := range apps[ai].Jobs {
			j := &apps[ai].Jobs[ji]
			for ti := range j.Tasks {
				in.tasks[ai] = append(in.tasks[ai], taskRef{job: j.Job, task: j.Tasks[ti].Task, td: &j.Tasks[ti]})
			}
		}
		in.done[ai] = make([]bool, len(in.tasks[ai]))
		in.unsat[ai] = len(in.tasks[ai])
	}
	in.free = make([]int, len(idle))
	in.owner = make([]int, len(idle))
	in.byNode = make(map[int][]int, len(idle))
	for ei := range idle {
		in.free[ei] = slotsOf(idle[ei])
		in.owner[ei] = -1
		in.byNode[idle[ei].Node] = append(in.byNode[idle[ei].Node], ei)
	}
	in.claimed = make([]int, len(apps))
	in.fillGiven = make([]int, len(apps))
	if opts.Observer != nil {
		opts.Observer.BeginRound(len(apps), len(idle))
	}
	return in
}

// slotsOf mirrors core's slot semantics: 0 means 1.
func slotsOf(e core.ExecInfo) int {
	if e.Slots <= 0 {
		return 1
	}
	return e.Slots
}

// headroom is the number of additional executors the app may still claim
// under its budget σ_i.
func (in *inst) headroom(ai int) int {
	h := in.apps[ai].Budget - in.apps[ai].Held - in.claimed[ai]
	if h < 0 {
		return 0
	}
	return h
}

// want is the app's residual slot demand: unsatisfied locality tasks plus
// preference-free pending tasks not yet covered by a fill grant.
func (in *inst) want(ai int) int {
	w := in.unsat[ai] + in.apps[ai].ExtraTasks - in.fillGiven[ai]
	if w < 0 {
		return 0
	}
	return w
}

// key is the app's static fairness key — the same fractions MINLOCALITY
// compares, computed once from the demand snapshot (denominator: history
// plus this round's pending work; empty history counts as fully local).
func (in *inst) key(ai int) obsv.Key {
	d := &in.apps[ai]
	k := obsv.Key{Jobs: 1, Tasks: 1}
	if den := d.TotalJobs + len(d.Jobs); den > 0 {
		k.Jobs = float64(d.LocalJobs) / float64(den)
	}
	if den := d.TotalTasks + len(in.tasks[ai]); den > 0 {
		k.Tasks = float64(d.LocalTasks) / float64(den)
	}
	return k
}

// localTo reports whether the executor's node stores a replica for the task.
func localTo(td *core.TaskDemand, node int) bool {
	for _, n := range td.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

// decide emits one observer Decision for the app; subsequent grants belong
// to it. job is the first job served (-1 unknown/none).
func (in *inst) decide(ai int, phase obsv.Phase, job int) {
	in.decApp = ai
	if in.opts.Observer == nil {
		return
	}
	in.opts.Observer.Decide(obsv.Decision{
		Phase: phase, App: in.apps[ai].App, Key: in.key(ai),
		RunnerUp: -1, Job: job,
	})
}

// claim marks idle executor ei as owned by app ai, charging the budget on
// first claim. It must only be called when free slots remain.
func (in *inst) claim(ai, ei int) {
	if in.owner[ei] == -1 {
		in.owner[ei] = ai
		in.claimed[ai]++
	}
}

// grantLocal appends a locality-carrying assignment of one slot of executor
// ei to task ti of app ai, emitting provenance.
func (in *inst) grantLocal(ai, ei, ti int) {
	e := in.idle[ei]
	tr := in.tasks[ai][ti]
	in.claim(ai, ei)
	in.free[ei]--
	in.done[ai][ti] = true
	in.unsat[ai]--
	if in.opts.Observer != nil {
		reason := obsv.ReasonLocalBlock
		switch {
		case tr.td.Fallback:
			reason = obsv.ReasonRackFallback
		case warmOn(tr.td, e.Node):
			reason = obsv.ReasonCacheHit
		}
		in.opts.Observer.Grant(obsv.Grant{
			App: in.apps[ai].App, Exec: e.ID, Node: e.Node,
			Job: tr.job, Task: tr.task, Reason: reason,
		})
	}
	in.plan = append(in.plan, core.Assignment{
		App: in.apps[ai].App, Exec: e.ID, Node: e.Node,
		Job: tr.job, Task: tr.task, Block: tr.td.Block, Local: true,
	})
}

// grantFill appends a preference-free assignment of one slot of executor ei
// to app ai.
func (in *inst) grantFill(ai, ei int) {
	e := in.idle[ei]
	in.claim(ai, ei)
	in.free[ei]--
	in.fillGiven[ai]++
	if in.opts.Observer != nil {
		in.opts.Observer.Grant(obsv.Grant{
			App: in.apps[ai].App, Exec: e.ID, Node: e.Node,
			Job: -1, Task: -1, Reason: obsv.ReasonArbitraryFill,
		})
	}
	in.plan = append(in.plan, core.Assignment{
		App: in.apps[ai].App, Exec: e.ID, Node: e.Node,
		Job: -1, Task: -1, Block: -1,
	})
}

// serveExec hands the remaining free slots of a claimed executor to the app:
// local grants for unsatisfied tasks stored on its node first, then fill
// grants while residual demand remains. Returns the number of grants made.
func (in *inst) serveExec(ai, ei int) int {
	node := in.idle[ei].Node
	n := 0
	for ti := range in.tasks[ai] {
		if in.free[ei] == 0 {
			return n
		}
		if in.done[ai][ti] || !localTo(in.tasks[ai][ti].td, node) {
			continue
		}
		in.grantLocal(ai, ei, ti)
		n++
	}
	for in.free[ei] > 0 && in.want(ai) > 0 {
		in.grantFill(ai, ei)
		n++
	}
	return n
}

// warmOn mirrors core's cache-warm provenance test.
func warmOn(td *core.TaskDemand, node int) bool {
	if td.Warm == nil {
		return false
	}
	for i, n := range td.Nodes {
		if n == node {
			return i < len(td.Warm) && td.Warm[i]
		}
	}
	return false
}

// finish returns the accumulated plan.
func (in *inst) finish() core.Plan { return core.Plan{Assignments: in.plan} }
