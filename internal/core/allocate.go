package core

import (
	"slices"

	"repro/internal/mutant"
	"repro/internal/obsv"
)

// Allocate runs Custody's two-level data-aware allocation (Algorithms 1 and
// 2) over a snapshot of application demands and idle executors, returning
// the executor assignments. Deterministic: ties are broken by identifiers
// (application and executor IDs must be unique).
//
// This is the incremental fast path: instead of recomputing every
// application's locality state from scratch on each pick — O(apps × jobs ×
// tasks) per granted executor, the pre-PR3 behavior frozen in
// AllocateReference — it maintains per-app locality indices (node →
// pending-task postings, per-task availability counters) that are updated in
// amortized O(1) per executor grant, and a lazy min-heap over pctLocalJobs
// so Algorithm 1's "pick the least-localized app" is O(log apps). The plan
// is byte-identical to the reference implementation; the differential
// battery in fuzz_diff_test.go is the gate.
func Allocate(apps []AppDemand, idle []ExecInfo, opts Options) Plan {
	return NewSession().Allocate(apps, idle, opts)
}

// allocator is the mutable working state of one allocation round. Its
// arenas and index structures are owned by a Session and reused across
// rounds.
type allocator struct {
	opts Options
	apps []*appState
	pool *execPool
	plan []Assignment
	heap []*appState // lazy min-heap; see minLocality

	fillOrder []*appState // fill's sort scratch, reused across rounds

	// obs receives decision provenance; nil disables instrumentation. dec
	// holds the pending Decision of the current pick: it is emitted on the
	// pick's first grant (so it can carry the job Algorithm 2 actually
	// served), or with Job=-1 when the pick produced nothing.
	obs        obsv.AllocObserver
	dec        obsv.Decision
	decPending bool
}

type appState struct {
	d    AppDemand
	idx  int // input position; tiebreak of last resort
	held int
	jobs []jobState

	newLocalJobs  int
	newLocalTasks int
	fillGiven     int
	wantSum       int // Σ remaining over jobs, kept incrementally for fillWant
	exhausted     bool

	// denJobs/denTasks are the fixed denominators of the fairness metrics:
	// history plus this round's pending jobs/tasks.
	denJobs  int
	denTasks int

	// satOwn counts unsatisfied tasks with at least one replica node where
	// the app holds a reserved executor with free slots; satUnres counts
	// those with at least one replica node holding an unreserved executor.
	// Together they answer wants() in O(1): the app can take a
	// locality-carrying slot iff satOwn > 0, or allowNew and satUnres > 0.
	satOwn   int
	satUnres int

	// resHeap is a min-heap (by pool index, equivalently executor ID) of
	// the executors this app has claimed, for O(log n) budget-free picks in
	// takeAny. Entries whose free slots are exhausted are skipped lazily.
	resHeap []int32

	// order holds the positions of jobs in Algorithm 2's service order; see
	// sortedJobs. Like resHeap it keeps its capacity across rounds.
	order []int32

	// keyJobs/keyTasks snapshot (newLocalJobs, newLocalTasks) at the app's
	// last (re-)insertion into the allocator heap. Both counters only grow,
	// so the fairness keys only grow, which is what makes the lazy heap
	// sound: a stale root is re-keyed and sifted down.
	keyJobs  int
	keyTasks int
}

// fillWant returns how many more slots the app can justify in the fill
// phase: one per still-unsatisfied input task plus one per no-preference
// pending task. The executor budget is enforced at take time (slots on
// already-claimed executors are budget-free).
func (a *appState) fillWant() int {
	want := a.d.ExtraTasks + a.wantSum - a.fillGiven
	if want < 0 {
		return 0
	}
	return want
}

type jobState struct {
	d         JobDemand
	tasks     []taskState
	remaining int

	// satOwn/satUnres are appState's satisfiability counters restricted to
	// this job's tasks, kept in step with them by every transition. They
	// let Algorithm 2 skip a job with no takeable task in O(1).
	satOwn   int
	satUnres int
}

type taskState struct {
	d         *TaskDemand
	owner     *appState
	job       *jobState
	satisfied bool

	// ownAvail counts this task's replica postings at nodes where the owner
	// currently has a reserved executor with free slots; unresAvail counts
	// postings at nodes that still hold an unreserved executor. Both are
	// maintained by the pool's drain/raise transitions.
	ownAvail   int32
	unresAvail int32
}

// pctLocalJobs is the fairness metric of Algorithm 1: the fraction of the
// app's jobs (history + this round's pending jobs) that achieve perfect
// locality. Apps with no jobs at all count as fully satisfied.
//
//custody:noalloc
func (a *appState) pctLocalJobs() float64 { return a.pctJobsAt(a.newLocalJobs) }

// pctLocalTasks is Algorithm 1's tie-breaker.
//
//custody:noalloc
func (a *appState) pctLocalTasks() float64 { return a.pctTasksAt(a.newLocalTasks) }

//custody:noalloc
func (a *appState) pctJobsAt(newLocal int) float64 {
	if a.denJobs == 0 {
		return 1
	}
	return float64(a.d.LocalJobs+newLocal) / float64(a.denJobs)
}

//custody:noalloc
func (a *appState) pctTasksAt(newLocal int) float64 {
	if a.denTasks == 0 {
		return 1
	}
	return float64(a.d.LocalTasks+newLocal) / float64(a.denTasks)
}

// allowNew reports whether the app may claim a previously-unreserved
// executor under its budget σ_i.
//
//custody:noalloc
func (a *appState) allowNew() bool { return a.held < a.d.Budget }

// wants reports whether the app can take another locality-carrying slot
// this round. O(1): the satisfiability counters are maintained by the
// pool's availability transitions.
//
//custody:noalloc
func (st *allocator) wants(a *appState) bool {
	if a.exhausted || st.pool.size == 0 {
		return false
	}
	return a.satOwn > 0 || (a.satUnres > 0 && a.allowNew())
}

// less orders applications by (pctLocalJobs, pctLocalTasks, app ID), the
// total order of procedure MINLOCALITY. The input-position tiebreak mirrors
// the reference scan's first-wins behavior and is only reachable with
// duplicate app IDs.
//
//custody:noalloc
func less(a, b *appState) bool {
	pa, pb := a.pctLocalJobs(), b.pctLocalJobs()
	if pa != pb {
		if mutant.Active == mutant.InvertFairness {
			return pa > pb // seeded bug: prefer the MOST-localized app
		}
		return pa < pb
	}
	ta, tb := a.pctLocalTasks(), b.pctLocalTasks()
	if ta != tb {
		return ta < tb
	}
	if a.d.App != b.d.App {
		return a.d.App < b.d.App
	}
	return a.idx < b.idx
}

// heapLess orders heap entries by their snapshotted keys. Live values may
// run ahead of the snapshot (they only grow); minLocality re-keys stale
// roots before trusting them.
//
//custody:noalloc
func heapLess(a, b *appState) bool {
	pa, pb := a.pctJobsAt(a.keyJobs), b.pctJobsAt(b.keyJobs)
	if pa != pb {
		if mutant.Active == mutant.InvertFairness {
			return pa > pb // seeded bug: prefer the MOST-localized app
		}
		return pa < pb
	}
	ta, tb := a.pctTasksAt(a.keyTasks), b.pctTasksAt(b.keyTasks)
	if ta != tb {
		return ta < tb
	}
	if a.d.App != b.d.App {
		return a.d.App < b.d.App
	}
	return a.idx < b.idx
}

// minLocality implements procedure MINLOCALITY: among the apps that still
// want executors, return the one with the lowest percentage of local jobs,
// breaking ties by percentage of local tasks, then app ID.
//
// The heap is lazy: because an app's fairness keys only grow within a
// round, and wants() can only transition true→false for any app other than
// the one currently being served (whose claims are the only events that
// raise availability), the root can be repaired in place — re-key and sift
// down when stale, drop permanently when no longer wanting — and the first
// fresh, wanting root is the true minimum. Amortized O(log apps) per call.
//
//custody:noalloc
func (st *allocator) minLocality() *appState {
	for len(st.heap) > 0 {
		top := st.heap[0]
		if !st.wants(top) {
			st.heapPop()
			continue
		}
		if top.keyJobs != top.newLocalJobs || top.keyTasks != top.newLocalTasks {
			top.keyJobs = top.newLocalJobs
			top.keyTasks = top.newLocalTasks
			st.heapSiftDown(0)
			continue
		}
		return top
	}
	return nil
}

// run is procedure INTER-APP FAIRNESS (Algorithm 1): while idle executors
// remain, hand the least-localized application to the intra-app allocator;
// once no locality demand can be met, distribute leftovers (fill phase).
//
//custody:noalloc
func (st *allocator) run() {
	for st.pool.size > 0 {
		a := st.minLocality()
		if a == nil {
			break
		}
		if st.obs != nil {
			st.beginPick(a, obsv.PhaseLocality, st.runnerUp())
		}
		before := len(st.plan)
		st.opts.Intra.allocate(st, a) //custody:ignore noalloc intra strategies are the round's workhorses and own their scratch; their allocs are pinned exactly by TestMicroInstanceWarmRound
		if len(st.plan) == before {
			// No progress: nothing in the pool is useful to this app.
			a.exhausted = true
			if st.obs != nil {
				st.emitPick(nil) // records the exhausted pick (no-grant)
			}
		}
	}
	if st.opts.FillToBudget {
		st.fill() //custody:ignore noalloc fill runs once per round after the per-grant hot loop; it sorts allocator-owned scratch with a standard-library stable sort
	}
}

// ---- decision provenance (all paths guarded by st.obs != nil) ----

// runnerUp returns the application the current pick beat: the
// second-smallest heap entry, which in a binary min-heap is always one of
// the root's two children. Non-root entries always carry fresh keys — only
// the app being served accrues locality, and it sits at the root until
// minLocality re-keys it — so comparing the children with the live order
// is exact. The runner-up is reported whether or not it can still take an
// executor (lazy deletion may not have reached it); nil when uncontested.
//
//custody:noalloc
func (st *allocator) runnerUp() *appState {
	var ru *appState
	for _, i := range [2]int{1, 2} {
		if i < len(st.heap) && (ru == nil || less(st.heap[i], ru)) {
			ru = st.heap[i]
		}
	}
	return ru
}

// beginPick stages the Decision for a fresh pick. It is emitted by the
// first grant (emitPick via assign), which fills in the served job; a
// pending decision from a grantless fill pick is simply overwritten.
//
//custody:noalloc
func (st *allocator) beginPick(a *appState, phase obsv.Phase, ru *appState) {
	st.dec = obsv.Decision{
		Phase:    phase,
		App:      a.d.App,
		Key:      obsv.Key{Jobs: a.pctLocalJobs(), Tasks: a.pctLocalTasks()},
		RunnerUp: -1,
		Job:      -1,
	}
	if ru != nil {
		st.dec.RunnerUp = ru.d.App
		st.dec.RunnerUpKey = obsv.Key{Jobs: ru.pctLocalJobs(), Tasks: ru.pctLocalTasks()}
	}
	st.decPending = true
}

// emitPick flushes the pending Decision, recording the first job
// Algorithm 2 served for this pick (j) and its unsatisfied-task count at
// grant time; j is nil for no-grant and fill decisions.
//
//custody:noalloc
func (st *allocator) emitPick(j *jobState) {
	if !st.decPending {
		return
	}
	st.decPending = false
	if j != nil {
		st.dec.Job = j.d.Job
		st.dec.Unsat = j.remaining
	}
	st.obs.Decide(st.dec) //custody:ignore noalloc dynamic observer dispatch; the in-tree FlightRecorder implementation is itself //custody:noalloc
}

// fill hands leftover slots to applications that still have pending tasks,
// least-localized first, one slot per pending task. The fairness keys are
// frozen during fill (fill assignments carry no locality), so a single
// stable sort replaces the reference's per-grant rescans; a takeAny failure
// is permanent (availability only shrinks), matching the reference's
// blocked set.
func (st *allocator) fill() {
	order := st.fillOrder[:0]
	for _, a := range st.apps {
		if a.fillWant() > 0 {
			order = append(order, a)
		}
	}
	st.fillOrder = order
	slices.SortStableFunc(order, func(x, y *appState) int {
		switch {
		case less(x, y):
			return -1
		case less(y, x):
			return 1
		}
		return 0
	})
	for i, a := range order {
		if st.pool.size == 0 {
			return
		}
		if st.obs != nil {
			// Fill picks are decided by the frozen sort above, so the
			// runner-up is simply the next app in fill order. The staged
			// decision is emitted only if the app actually receives a slot;
			// a blocked app's pending decision is overwritten or dropped.
			var ru *appState
			if i+1 < len(order) {
				ru = order[i+1]
			}
			st.beginPick(a, obsv.PhaseFill, ru)
		}
		for a.fillWant() > 0 {
			e, newExec, ok := st.pool.takeAny(a)
			if !ok {
				break
			}
			st.assign(a, e, nil, nil, false, newExec)
			a.fillGiven++
			if st.pool.size == 0 {
				return
			}
		}
	}
}

// assign records the allocation of one executor slot and updates locality
// state. newExec marks the first slot claimed on an executor, which is the
// unit the budget σ_i counts.
//
//custody:noalloc
func (st *allocator) assign(a *appState, e ExecInfo, j *jobState, t *taskState, local, newExec bool) {
	if st.obs != nil {
		st.emitPick(j)
		g := obsv.Grant{App: a.d.App, Exec: e.ID, Node: e.Node, Job: -1, Task: -1, Reason: obsv.ReasonArbitraryFill}
		if j != nil && local {
			g.Job = j.d.Job
			g.Task = t.d.Task
			switch {
			case t.d.Fallback:
				g.Reason = obsv.ReasonRackFallback
			case t.d.warmOn(e.Node):
				g.Reason = obsv.ReasonCacheHit
			default:
				g.Reason = obsv.ReasonLocalBlock
			}
		}
		st.obs.Grant(g) //custody:ignore noalloc dynamic observer dispatch; the in-tree FlightRecorder implementation is itself //custody:noalloc
	}
	as := Assignment{App: a.d.App, Exec: e.ID, Node: e.Node}
	if j != nil {
		as.Job = j.d.Job
		as.Task = t.d.Task
		as.Block = t.d.Block
		as.Local = local
		if local && !t.satisfied {
			if t.unresAvail > 0 {
				a.satUnres--
				j.satUnres--
			}
			if t.ownAvail > 0 {
				a.satOwn--
				j.satOwn--
			}
			t.satisfied = true
			j.remaining--
			a.wantSum--
			a.newLocalTasks++
			if j.remaining == 0 {
				a.newLocalJobs++
			}
		}
	} else {
		as.Job = -1
		as.Task = -1
		as.Block = -1
	}
	if newExec {
		a.held++
	}
	st.plan = append(st.plan, as) //custody:ignore noalloc the plan is the round's output, presized by Session.Allocate to a bound no round exceeds
}

// IntraStrategy selects the executors an application receives once
// Algorithm 1 has picked it.
type IntraStrategy interface {
	Name() string
	// allocate assigns executors from st.pool to a. It must return when the
	// app stops being the minimum-locality app (Algorithm 2's
	// ALLOCATEEXECUTOR flag), when the budget is exhausted, or when no
	// useful executor remains.
	allocate(st *allocator, a *appState)
}

// takeable reports whether takeOnAny would succeed for the task — the O(1)
// equivalent of attempting it: an executor is usable iff it is reserved to
// the app with free slots, or unreserved while the budget allows a claim.
//
//custody:noalloc
func takeable(a *appState, t *taskState) bool {
	return t.ownAvail > 0 || (t.unresAvail > 0 && a.allowNew())
}

// jobTakeable reports whether any of the job's unsatisfied tasks is
// takeable: the job-level counters sum the task-level conditions.
//
//custody:noalloc
func jobTakeable(a *appState, j *jobState) bool {
	return j.satOwn > 0 || (j.satUnres > 0 && a.allowNew())
}

// PriorityIntra is the paper's Algorithm 2: jobs sorted by number of
// unsatisfied input tasks ascending; all of a job's demands are served
// before the next job ("apply for all the desired executors of a job before
// moving to the next job"). The budget-fill loop of lines 17–20 runs later,
// in the allocator's shared fill phase (see Options.FillToBudget).
type PriorityIntra struct{}

// Name implements IntraStrategy.
func (PriorityIntra) Name() string { return "priority" }

// allocate scans jobs in service order. A job with no takeable task is
// skipped in O(1), and a job's task scan stops as soon as none of its
// remaining tasks is takeable, so a pick costs O(J) plus the served job's
// tasks.
//
//custody:noalloc
func (PriorityIntra) allocate(st *allocator, a *appState) {
	for _, ji := range a.sortedJobs() {
		j := &a.jobs[ji]
		for ti := range j.tasks {
			if !jobTakeable(a, j) {
				break
			}
			t := &j.tasks[ti]
			if t.satisfied || !takeable(a, t) {
				continue // no available executor stores this task's input
			}
			e, newExec, ok := st.pool.takeOnAny(t.d.Nodes, a)
			if !ok {
				continue
			}
			st.assign(a, e, j, t, true, newExec)
			if st.minLocality() != a {
				return // yield to a now-less-localized application
			}
		}
	}
}

// FairnessIntra is the strawman of Fig. 4: it round-robins over jobs giving
// each one local task per pass, spreading locality thin so no job becomes
// fully local. Used by the ablation benchmarks.
type FairnessIntra struct{}

// Name implements IntraStrategy.
func (FairnessIntra) Name() string { return "fairness" }

//custody:noalloc
func (FairnessIntra) allocate(st *allocator, a *appState) {
	progress := true
	for progress {
		progress = false
		for ji := range a.jobs {
			j := &a.jobs[ji]
			if !jobTakeable(a, j) {
				continue
			}
			// One unsatisfied task per job per pass.
			for ti := range j.tasks {
				t := &j.tasks[ti]
				if t.satisfied || !takeable(a, t) {
					continue
				}
				e, newExec, ok := st.pool.takeOnAny(t.d.Nodes, a)
				if !ok {
					continue
				}
				st.assign(a, e, j, t, true, newExec)
				progress = true
				if st.minLocality() != a {
					return
				}
				break
			}
		}
	}
}

// sortedJobs re-sorts a.order into Algorithm 2's service order, (remaining
// unsatisfied tasks, job ID, position in a.jobs), and returns it. The
// position key reproduces a stable sort of the jobs in input order, so
// duplicate job IDs keep their input order. Insertion sort from the previous
// pick's order is nearly linear: within a round remaining only falls, so
// only the jobs served since the last pick move, and only forward.
//
//custody:noalloc
func (a *appState) sortedJobs() []int32 {
	o := a.order
	for i := 1; i < len(o); i++ {
		v := o[i]
		k := i
		for k > 0 && a.jobBefore(v, o[k-1]) {
			o[k] = o[k-1]
			k--
		}
		o[k] = v
	}
	return o
}

// jobBefore orders job positions x and y by (remaining, job ID, position).
//
//custody:noalloc
func (a *appState) jobBefore(x, y int32) bool {
	jx, jy := &a.jobs[x], &a.jobs[y]
	if jx.remaining != jy.remaining {
		return jx.remaining < jy.remaining
	}
	if jx.d.Job != jy.d.Job {
		return jx.d.Job < jy.d.Job
	}
	return x < y
}

// ---- allocator heap (lazy min-heap of *appState by snapshotted keys) ----

//custody:noalloc
func (st *allocator) heapInit() {
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.heapSiftDown(i)
	}
}

//custody:noalloc
func (st *allocator) heapPop() {
	h := st.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	st.heap = h[:n]
	if n > 0 {
		st.heapSiftDown(0)
	}
}

//custody:noalloc
func (st *allocator) heapSiftDown(i int) {
	h := st.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && heapLess(h[r], h[l]) {
			m = r
		}
		if !heapLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
