package core

import (
	"sort"
)

// AllocateReference is the pre-fast-path implementation of Allocate, frozen
// verbatim (modulo renames) when the incremental allocator landed. It is the
// oracle of the differential battery — FuzzAllocateEquivalence and the
// warm-session determinism tests require Allocate to produce byte-identical
// plans — and TestMicroInstanceWarmRound checks the warm session against it
// before pinning its allocations. It lives in a non-test file because the
// manager's SelfCheck and internal/modelcheck call it as well. Do not
// modify it and do not call it from production code: it recomputes every
// application's locality state from scratch on each pick, O(apps × jobs ×
// tasks) per granted executor.
//
// Like Allocate, it requires unique application and executor IDs.
func AllocateReference(apps []AppDemand, idle []ExecInfo, opts Options) Plan {
	st := newRefAllocator(apps, idle, opts)
	st.run()
	return Plan{Assignments: st.plan}
}

// refAllocator is the mutable working state of one reference allocation
// round.
type refAllocator struct {
	opts Options
	apps []*refAppState
	pool *refExecPool
	plan []Assignment
}

type refAppState struct {
	d    AppDemand
	held int
	jobs []*refJobState

	newLocalJobs  int
	newLocalTasks int
	fillGiven     int
	exhausted     bool // no further useful allocation possible this round
}

// fillWant returns how many more slots the app can justify in the fill
// phase: one per still-unsatisfied input task plus one per no-preference
// pending task. The executor budget is enforced at take time (slots on
// already-claimed executors are budget-free).
func (a *refAppState) fillWant() int {
	want := a.d.ExtraTasks
	for _, j := range a.jobs {
		want += j.remaining
	}
	want -= a.fillGiven
	if want < 0 {
		return 0
	}
	return want
}

type refJobState struct {
	d         JobDemand
	satisfied []bool
	remaining int
}

func newRefAllocator(apps []AppDemand, idle []ExecInfo, opts Options) *refAllocator {
	if opts.Intra == nil {
		opts.Intra = PriorityIntra{}
	}
	st := &refAllocator{opts: opts, pool: newRefExecPool(idle)}
	for _, d := range apps {
		a := &refAppState{d: d, held: d.Held}
		for _, jd := range d.Jobs {
			a.jobs = append(a.jobs, &refJobState{
				d:         jd,
				satisfied: make([]bool, len(jd.Tasks)),
				remaining: len(jd.Tasks),
			})
		}
		st.apps = append(st.apps, a)
	}
	return st
}

// pctLocalJobs is the fairness metric of Algorithm 1.
func (a *refAppState) pctLocalJobs() float64 {
	den := a.d.TotalJobs + len(a.jobs)
	if den == 0 {
		return 1
	}
	return float64(a.d.LocalJobs+a.newLocalJobs) / float64(den)
}

// pctLocalTasks is Algorithm 1's tie-breaker.
func (a *refAppState) pctLocalTasks() float64 {
	den := a.d.TotalTasks
	for _, j := range a.jobs {
		den += len(j.d.Tasks)
	}
	if den == 0 {
		return 1
	}
	return float64(a.d.LocalTasks+a.newLocalTasks) / float64(den)
}

// allowNew reports whether the app may claim a previously-unreserved
// executor under its budget σ_i.
func (a *refAppState) allowNew() bool { return a.held < a.d.Budget }

// wants reports whether the app can take another locality-carrying slot
// this round.
func (st *refAllocator) wants(a *refAppState) bool {
	if a.exhausted || st.pool.size == 0 {
		return false
	}
	for _, j := range a.jobs {
		for i, t := range j.d.Tasks {
			if j.satisfied[i] {
				continue
			}
			if st.pool.hasOnAny(t.Nodes, a.d.App, a.allowNew()) {
				return true
			}
		}
	}
	return false
}

// minLocality implements procedure MINLOCALITY by linear scan.
func (st *refAllocator) minLocality() *refAppState {
	var best *refAppState
	for _, a := range st.apps {
		if !st.wants(a) {
			continue
		}
		if best == nil || refLess(a, best) {
			best = a
		}
	}
	return best
}

func refLess(a, b *refAppState) bool {
	pa, pb := a.pctLocalJobs(), b.pctLocalJobs()
	if pa != pb {
		return pa < pb
	}
	ta, tb := a.pctLocalTasks(), b.pctLocalTasks()
	if ta != tb {
		return ta < tb
	}
	return a.d.App < b.d.App
}

// run is procedure INTER-APP FAIRNESS (Algorithm 1).
func (st *refAllocator) run() {
	for st.pool.size > 0 {
		a := st.minLocality()
		if a == nil {
			break
		}
		before := len(st.plan)
		st.intraAllocate(a)
		if len(st.plan) == before {
			// No progress: nothing in the pool is useful to this app.
			a.exhausted = true
		}
	}
	if st.opts.FillToBudget {
		st.fill()
	}
}

// intraAllocate dispatches Options.Intra onto the reference copies of the
// intra-application strategies.
func (st *refAllocator) intraAllocate(a *refAppState) {
	switch st.opts.Intra.(type) {
	case FairnessIntra:
		st.fairnessAllocate(a)
	default: // PriorityIntra (and nil, normalized in newRefAllocator)
		st.priorityAllocate(a)
	}
}

// fill hands leftover slots to applications that still have pending tasks,
// least-localized first, one slot per pending task.
func (st *refAllocator) fill() {
	blocked := map[int]bool{}
	for st.pool.size > 0 {
		var best *refAppState
		for _, a := range st.apps {
			if blocked[a.d.App] || a.fillWant() <= 0 {
				continue
			}
			if best == nil || refLess(a, best) {
				best = a
			}
		}
		if best == nil {
			return
		}
		e, newExec, ok := st.pool.takeAny(best.d.App, best.allowNew())
		if !ok {
			blocked[best.d.App] = true
			continue
		}
		st.assign(best, e, nil, 0, false, newExec)
		best.fillGiven++
	}
}

// assign records the allocation of one executor slot and updates locality
// state.
func (st *refAllocator) assign(a *refAppState, e ExecInfo, j *refJobState, taskIdx int, local, newExec bool) {
	as := Assignment{App: a.d.App, Exec: e.ID, Node: e.Node}
	if j != nil {
		as.Job = j.d.Job
		as.Task = j.d.Tasks[taskIdx].Task
		as.Block = j.d.Tasks[taskIdx].Block
		as.Local = local
		if local && !j.satisfied[taskIdx] {
			j.satisfied[taskIdx] = true
			j.remaining--
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
	st.plan = append(st.plan, as)
}

// priorityAllocate is the reference copy of PriorityIntra (Algorithm 2).
func (st *refAllocator) priorityAllocate(a *refAppState) {
	jobs := append([]*refJobState(nil), a.jobs...)
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].remaining != jobs[j].remaining {
			return jobs[i].remaining < jobs[j].remaining
		}
		return jobs[i].d.Job < jobs[j].d.Job
	})
	for _, j := range jobs {
		for ti := range j.d.Tasks {
			if j.satisfied[ti] {
				continue
			}
			e, newExec, ok := st.pool.takeOnAny(j.d.Tasks[ti].Nodes, a.d.App, a.allowNew())
			if !ok {
				continue // no available executor stores this task's input
			}
			st.assign(a, e, j, ti, true, newExec)
			if st.minLocality() != a {
				return // yield to a now-less-localized application
			}
		}
	}
}

// fairnessAllocate is the reference copy of FairnessIntra (Fig. 4 strawman).
func (st *refAllocator) fairnessAllocate(a *refAppState) {
	progress := true
	for progress {
		progress = false
		for _, j := range a.jobs {
			// One unsatisfied task per job per pass.
			for ti := range j.d.Tasks {
				if j.satisfied[ti] {
					continue
				}
				e, newExec, ok := st.pool.takeOnAny(j.d.Tasks[ti].Nodes, a.d.App, a.allowNew())
				if !ok {
					continue
				}
				st.assign(a, e, j, ti, true, newExec)
				progress = true
				if st.minLocality() != a {
					return
				}
				break
			}
		}
	}
}

// refPoolExec is one idle executor's state inside the reference pool.
type refPoolExec struct {
	info     ExecInfo
	free     int
	reserved int // app ID, or -1 when unreserved
}

// refExecPool indexes idle executor slots by node for locality lookups.
type refExecPool struct {
	byNode map[int][]*refPoolExec // per node, sorted by executor ID
	order  []int                  // node ids with executors, kept sorted
	size   int                    // total free slots
}

func newRefExecPool(idle []ExecInfo) *refExecPool {
	p := &refExecPool{byNode: map[int][]*refPoolExec{}}
	sorted := append([]ExecInfo(nil), idle...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, e := range sorted {
		pe := &refPoolExec{info: e, free: e.slots(), reserved: -1}
		p.byNode[e.Node] = append(p.byNode[e.Node], pe)
		p.size += pe.free
	}
	for n := range p.byNode {
		p.order = append(p.order, n)
	}
	sort.Ints(p.order)
	return p
}

// usable reports whether the entry can serve the app under the budget rule.
func (pe *refPoolExec) usable(app int, allowNew bool) bool {
	if pe.free <= 0 {
		return false
	}
	if pe.reserved == app {
		return true
	}
	return pe.reserved == -1 && allowNew
}

// hasOnAny reports whether the app could take a slot on one of the nodes.
func (p *refExecPool) hasOnAny(nodes []int, app int, allowNew bool) bool {
	for _, n := range nodes {
		for _, pe := range p.byNode[n] {
			if pe.usable(app, allowNew) {
				return true
			}
		}
	}
	return false
}

// takeOnAny takes one slot on one of the given nodes for the app.
func (p *refExecPool) takeOnAny(nodes []int, app int, allowNew bool) (e ExecInfo, newExec, ok bool) {
	var best *refPoolExec
	seen := map[int]bool{}
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, pe := range p.byNode[n] {
			if !pe.usable(app, allowNew) {
				continue
			}
			if best == nil || refBetterPick(pe, best, app) {
				best = pe
			}
		}
	}
	if best == nil {
		return ExecInfo{}, false, false
	}
	return p.takeSlot(best, app)
}

// takeAny takes one slot anywhere for the app.
func (p *refExecPool) takeAny(app int, allowNew bool) (e ExecInfo, newExec, ok bool) {
	var best *refPoolExec
	for _, n := range p.order {
		for _, pe := range p.byNode[n] {
			if !pe.usable(app, allowNew) {
				continue
			}
			if best == nil || refBetterPick(pe, best, app) {
				best = pe
			}
		}
	}
	if best == nil {
		return ExecInfo{}, false, false
	}
	return p.takeSlot(best, app)
}

// refBetterPick orders candidates: app-reserved executors first (no budget
// cost), then lowest executor ID.
func refBetterPick(a, b *refPoolExec, app int) bool {
	ar := a.reserved == app
	br := b.reserved == app
	if ar != br {
		return ar
	}
	return a.info.ID < b.info.ID
}

func (p *refExecPool) takeSlot(pe *refPoolExec, app int) (ExecInfo, bool, bool) {
	newExec := pe.reserved == -1
	pe.reserved = app
	pe.free--
	p.size--
	return pe.info, newExec, true
}
