package core

import (
	"cmp"
	"slices"

	"repro/internal/mutant"
)

// Session carries the allocator's incremental state across allocation
// rounds: the per-app locality indices (node → pending-task postings,
// per-task availability counters), the executor pool's node indexes, and
// every scratch arena the round needs. A manager that allocates repeatedly
// (internal/manager's Custody driver round-trips) keeps one Session alive so
// each round reuses the previous round's memory instead of re-deriving the
// index structures from scratch; the package-level Allocate creates a
// throwaway Session per call.
//
// A Session is not safe for concurrent use. Plans returned by Allocate are
// freshly allocated and remain valid after further rounds.
type Session struct {
	st allocator

	appArena  []appState
	jobArena  []jobState
	taskArena []taskState
}

// NewSession returns an empty allocation session.
func NewSession() *Session {
	s := &Session{}
	s.st.pool = &execPool{far: map[int]int32{}}
	return s
}

// Allocate runs one allocation round over the session's reusable state. It
// is semantically identical to the package-level Allocate (and byte-identical
// to AllocateReference): only the memory is warm, never the decisions.
func (s *Session) Allocate(apps []AppDemand, idle []ExecInfo, opts Options) Plan {
	if opts.Intra == nil {
		opts.Intra = PriorityIntra{}
	}
	st := &s.st
	st.opts = opts
	st.obs = opts.Observer
	st.decPending = false
	st.plan = nil // handed to the caller; must not be reused
	if st.obs != nil {
		st.obs.BeginRound(len(apps), len(idle))
	}
	st.pool.reset(idle)
	want := s.buildApps(apps)
	// Every grant takes a free slot, and every grant either satisfies a
	// pending task or is a fill grant justified by fillWant, so the plan
	// never outgrows this bound.
	if n := min(st.pool.size, want); n > 0 {
		st.plan = make([]Assignment, 0, n)
	}
	st.heapInit()
	st.run()
	if len(st.plan) == 0 {
		st.plan = nil // an empty plan is nil, as the reference returns it
	}
	return Plan{Assignments: st.plan}
}

// buildApps fills the app/job/task arenas from the demand snapshot and
// posts every pending task's replica nodes into the pool's locality index.
// It returns the number of slots the demand can justify: pending tasks plus
// no-preference tasks.
func (s *Session) buildApps(apps []AppDemand) int {
	st := &s.st
	nJobs, nTasks, extra := 0, 0, 0
	for i := range apps {
		nJobs += len(apps[i].Jobs)
		extra += max(apps[i].ExtraTasks, 0)
		for j := range apps[i].Jobs {
			nTasks += len(apps[i].Jobs[j].Tasks)
		}
	}
	s.appArena = grow(s.appArena, len(apps))
	s.jobArena = grow(s.jobArena, nJobs)
	s.taskArena = grow(s.taskArena, nTasks)
	st.apps = st.apps[:0]
	st.heap = st.heap[:0]

	jb, tb := 0, 0
	for i := range apps {
		d := apps[i]
		a := &s.appArena[i]
		a.reset(d, i)
		a.jobs = s.jobArena[jb : jb+len(d.Jobs)]
		jb += len(d.Jobs)
		denTasks := d.TotalTasks
		for k := range d.Jobs {
			jd := d.Jobs[k]
			j := &a.jobs[k]
			*j = jobState{d: jd, remaining: len(jd.Tasks), tasks: s.taskArena[tb : tb+len(jd.Tasks)]}
			tb += len(jd.Tasks)
			denTasks += len(jd.Tasks)
			a.wantSum += j.remaining
			for x := range jd.Tasks {
				t := &j.tasks[x]
				*t = taskState{d: &jd.Tasks[x], owner: a, job: j}
				st.pool.post(t)
				if t.unresAvail > 0 {
					a.satUnres++
					j.satUnres++
				}
			}
		}
		a.denTasks = denTasks
		st.apps = append(st.apps, a)
		st.heap = append(st.heap, a)
	}
	return nTasks + extra
}

// reset reinitializes the app's state for a new round from its demand at
// input position idx, keeping the capacity of its per-round buffers. The
// job order starts as input order; sortedJobs sorts it on the first pick.
func (a *appState) reset(d AppDemand, idx int) {
	resBuf, order := a.resHeap[:0], a.order[:0]
	for k := range d.Jobs {
		order = append(order, int32(k))
	}
	*a = appState{
		d:       d,
		idx:     idx,
		held:    d.Held,
		resHeap: resBuf,
		order:   order,
		denJobs: d.TotalJobs + len(d.Jobs),
	}
}

// grow returns buf resliced to length n, reusing its backing array and
// growing it when needed. Entries are NOT zeroed: callers fully initialize
// every entry they use (preserving inner-slice capacity for reuse).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]T, n-cap(buf))...)
	}
	return buf[:n]
}

// ---- executor pool with incremental locality index ----

// poolExec is one idle executor's state inside the pool. Once a slot is
// taken by an application, the executor is reserved: its remaining slots may
// only serve the same application (an executor belongs to one app,
// constraint (2)). The cached indexes spare takeSlot every index lookup; the
// struct stays at 40 bytes, which matters at 200k executors per round.
type poolExec struct {
	info    ExecInfo
	free    int32
	app     int32 // reserving app's input position; -1 while unreserved
	nodeIdx int32 // index into pool.nodes, set by reset
	naIdx   int32 // its (node, app) entry in pool.na, set when claimed
}

// nodeState indexes one node's executors and the pending tasks posted to it.
type nodeState struct {
	execIdx []int32 // indices into pool.execs, ascending executor ID
	// cursor is the node's min-unreserved scan position. Unreserved
	// executors at a node are always consumed lowest-ID-first (every take
	// path picks the per-node or global minimum), so entries behind the
	// cursor are permanently reserved and the scan never backs up.
	cursor int32
	unres  int32 // unreserved executors remaining at this node
	// posts holds one entry per (pending task, replica-on-this-node)
	// occurrence, across all apps; walked once when the node's last
	// unreserved executor is claimed (the unres-drain transition).
	posts []*taskState
	// naHead heads the node's intrusive list of nodeApp entries (linked by
	// nodeApp.next), -1 when empty. The newest entry is at the head, which
	// is the one post asks for next, since tasks are posted app by app.
	naHead int32
}

// nodeApp is the per-(node, app) slice of the index: the app's posted tasks
// on the node and the app's claimed executors there.
type nodeApp struct {
	posts   []*taskState
	execIdx []int32 // claimed executors, ascending ID by construction
	cursor  int32   // min-free scan position; free never recovers in-round
	ownFree int32   // claimed executors with free slots remaining
	next    int32   // next entry on the same node, -1 at the tail
	app     int     // app ID the entry belongs to
}

// execPool indexes idle executor slots by node for locality lookups, with
// availability counters that keep per-app satisfiability (appState.satOwn /
// satUnres) current in amortized O(1) per grant.
type execPool struct {
	execs []poolExec // ascending executor ID
	size  int        // total free slots

	nodes    []nodeState
	nodesLen int
	// nodeAt maps a node ID n in [0, denseNodeLimit) to 1 + its index into
	// nodes, 0 when n holds no idle executor this round. It grows to the
	// largest node ID seen and never shrinks; reset clears it through the
	// previous round's execs. far holds the node IDs outside that range.
	nodeAt []int32
	far    map[int]int32

	na    []nodeApp // (node, app) entries, listed per node from nodeState.naHead
	naLen int

	cursor int // global min-unreserved scan over execs (takeAny)
}

// denseNodeLimit bounds the node IDs nodeAt covers, so the index stays at
// most 4 MB; IDs outside [0, denseNodeLimit) go through the far map.
const denseNodeLimit = 1 << 20

// node returns node n's index into nodes, and false when n holds no idle
// executor this round.
//
//custody:noalloc
func (p *execPool) node(n int) (int32, bool) {
	if uint(n) < uint(len(p.nodeAt)) {
		i := p.nodeAt[n]
		return i - 1, i != 0
	}
	if uint(n) < denseNodeLimit || len(p.far) == 0 {
		return -1, false
	}
	ni, ok := p.far[n]
	return ni, ok
}

// reset rebuilds the pool for a new round, reusing all arenas. Executors
// are indexed in ascending ID order, so every per-node execIdx list comes
// out ascending: the tie-stamp ordering minUnres and the availability
// transitions rely on. Callers usually pass idle in ascending ID order
// already, and then the sort is skipped.
func (p *execPool) reset(idle []ExecInfo) {
	p.nodesLen = 0
	p.naLen = 0
	clear(p.far)
	for i := range p.execs { // the previous round's executors set every entry
		if n := p.execs[i].info.Node; uint(n) < denseNodeLimit {
			p.nodeAt[n] = 0
		}
	}
	p.execs = grow(p.execs, len(idle))
	sorted, maxNode := true, -1
	for i, e := range idle {
		p.execs[i] = poolExec{info: e, free: int32(e.slots()), app: -1, nodeIdx: -1, naIdx: -1}
		if i > 0 && e.ID < idle[i-1].ID {
			sorted = false
		}
		if uint(e.Node) < denseNodeLimit {
			maxNode = max(maxNode, e.Node)
		}
	}
	if !sorted && mutant.Active != mutant.TrustOrder { // seeded bug: never sort
		slices.SortFunc(p.execs, func(x, y poolExec) int { return cmp.Compare(x.info.ID, y.info.ID) })
	}
	if maxNode >= len(p.nodeAt) {
		p.nodeAt = grow(p.nodeAt, maxNode+1) // never shrinks, so new entries are still zero
	}
	p.size = 0
	p.cursor = 0
	for x := range p.execs {
		i := int32(x)
		if mutant.Active == mutant.TieStamp { // seeded bug: descending per-node lists
			i = int32(len(p.execs) - 1 - x)
		}
		pe := &p.execs[i]
		ni, ok := p.node(pe.info.Node)
		if !ok {
			ni = p.newNode()
			if n := pe.info.Node; uint(n) < denseNodeLimit {
				p.nodeAt[n] = ni + 1
			} else {
				p.far[n] = ni
			}
		}
		pe.nodeIdx = ni
		ns := &p.nodes[ni]
		ns.execIdx = append(ns.execIdx, i)
		ns.unres++
		p.size += int(pe.free)
	}
}

func (p *execPool) newNode() int32 {
	if p.nodesLen < len(p.nodes) {
		ns := &p.nodes[p.nodesLen]
		ns.execIdx = ns.execIdx[:0]
		ns.posts = ns.posts[:0]
		ns.cursor = 0
		ns.unres = 0
		ns.naHead = -1
	} else {
		p.nodes = append(p.nodes, nodeState{naHead: -1})
	}
	p.nodesLen++
	return int32(p.nodesLen - 1)
}

// findNodeApp returns the (node, app) index entry, or -1 when the app has
// none on the node. The walk is bounded by the apps posted to the node.
//
//custody:noalloc
func (p *execPool) findNodeApp(ni int32, app int) int32 {
	for i := p.nodes[ni].naHead; i >= 0; i = p.na[i].next {
		if p.na[i].app == app {
			return i
		}
	}
	return -1
}

// nodeApp returns the (node, app) index entry, creating it on first use.
//
//custody:noalloc
func (p *execPool) nodeApp(ni int32, app int) int32 {
	if i := p.findNodeApp(ni, app); i >= 0 {
		return i
	}
	var i int32
	if p.naLen < len(p.na) {
		i = int32(p.naLen)
		na := &p.na[i]
		na.posts = na.posts[:0]
		na.execIdx = na.execIdx[:0]
		na.cursor = 0
		na.ownFree = 0
	} else {
		i = int32(len(p.na))
		p.na = append(p.na, nodeApp{}) //custody:ignore noalloc na arena grows only until the (node, app) working set is warm
	}
	p.naLen++
	ns := &p.nodes[ni]
	p.na[i].app = app
	p.na[i].next = ns.naHead
	ns.naHead = i
	return i
}

// post registers a pending task's replica nodes in the locality index and
// initializes its unreserved-availability counter. Nodes without executors
// are not posted: they can never satisfy the task and never transition.
//
//custody:noalloc
func (p *execPool) post(t *taskState) {
	for _, n := range t.d.Nodes {
		ni, ok := p.node(n)
		if !ok {
			continue
		}
		ns := &p.nodes[ni]
		ns.posts = append(ns.posts, t) //custody:ignore noalloc posts arenas keep their capacity across rounds; growth stops once warm
		nai := p.nodeApp(ni, t.owner.d.App)
		na := &p.na[nai]
		na.posts = append(na.posts, t) //custody:ignore noalloc posts arenas keep their capacity across rounds; growth stops once warm
		t.unresAvail++                 // at build time every executor is unreserved
	}
}

// minUnres returns the node's lowest-ID unreserved executor, or -1.
//
//custody:noalloc
func (p *execPool) minUnres(ns *nodeState) int32 {
	for int(ns.cursor) < len(ns.execIdx) {
		ei := ns.execIdx[ns.cursor]
		if p.execs[ei].app < 0 {
			return ei
		}
		ns.cursor++
	}
	return -1
}

// minOwnFree returns the app's lowest-ID claimed executor with free slots
// on the node, or -1.
//
//custody:noalloc
func (p *execPool) minOwnFree(na *nodeApp) int32 {
	for int(na.cursor) < len(na.execIdx) {
		ei := na.execIdx[na.cursor]
		if p.execs[ei].free > 0 {
			return ei
		}
		na.cursor++
	}
	return -1
}

// better reports whether cand beats best under the reference pick order:
// app-reserved executors first (no budget cost), then lowest executor ID;
// first-considered wins ties.
//
//custody:noalloc
func (p *execPool) better(cand int32, candRes bool, best int32, bestRes bool) bool {
	if best < 0 {
		return true
	}
	if candRes != bestRes {
		return candRes
	}
	return p.execs[cand].info.ID < p.execs[best].info.ID
}

// takeOnAny takes one slot on one of the given nodes for the app. Slots on
// executors already reserved for the app are preferred (they are free with
// respect to the budget); ties break toward the lowest executor ID.
// newExec reports whether a previously-unreserved executor was claimed.
//
//custody:noalloc
func (p *execPool) takeOnAny(nodes []int, a *appState) (e ExecInfo, newExec, ok bool) {
	allowNew := a.allowNew()
	best := int32(-1)
	bestRes := false
	for _, n := range nodes {
		ni, ok := p.node(n)
		if !ok {
			continue
		}
		if nai := p.findNodeApp(ni, a.d.App); nai >= 0 {
			if ei := p.minOwnFree(&p.na[nai]); ei >= 0 && p.better(ei, true, best, bestRes) {
				best, bestRes = ei, true
			}
		}
		if allowNew {
			ns := &p.nodes[ni]
			if ns.unres > 0 {
				if ei := p.minUnres(ns); ei >= 0 && p.better(ei, false, best, bestRes) {
					best, bestRes = ei, false
				}
			}
		}
	}
	if best < 0 {
		return ExecInfo{}, false, false
	}
	return p.takeSlot(best, a)
}

// takeAny takes one slot anywhere for the app: its lowest-ID claimed
// executor with free slots, else (budget permitting) the globally lowest-ID
// unreserved executor.
//
//custody:noalloc
func (p *execPool) takeAny(a *appState) (e ExecInfo, newExec, ok bool) {
	for len(a.resHeap) > 0 {
		ei := a.resHeap[0]
		if p.execs[ei].free > 0 {
			return p.takeSlot(ei, a)
		}
		popIntHeap(&a.resHeap) // exhausted executor; discard lazily
	}
	if a.allowNew() {
		for p.cursor < len(p.execs) {
			if p.execs[p.cursor].app < 0 {
				return p.takeSlot(int32(p.cursor), a)
			}
			p.cursor++
		}
	}
	return ExecInfo{}, false, false
}

// takeSlot consumes one slot on the executor for the app, firing the
// availability transitions that keep satisfiability counters current:
//
//   - claiming a node's last unreserved executor drains unresAvail for
//     every task posted there (each node drains at most once per round);
//   - the app's first free claimed executor on a node raises ownAvail for
//     the app's tasks posted there, and losing the last one drains it.
//
//custody:noalloc
func (p *execPool) takeSlot(ei int32, a *appState) (ExecInfo, bool, bool) {
	pe := &p.execs[ei]
	newExec := pe.app < 0
	if newExec {
		pe.app = int32(a.idx)
		ns := &p.nodes[pe.nodeIdx]
		ns.unres--
		if ns.unres == 0 {
			p.drainUnres(ns)
		}
		pe.naIdx = p.nodeApp(pe.nodeIdx, a.d.App)
		na := &p.na[pe.naIdx]
		na.execIdx = append(na.execIdx, ei) //custody:ignore noalloc execIdx arenas keep their capacity across rounds; growth stops once warm
		pushIntHeap(&a.resHeap, ei)
		pe.free--
		if pe.free > 0 {
			na.ownFree++
			if na.ownFree == 1 {
				p.raiseOwn(na)
			}
		}
	} else {
		na := &p.na[pe.naIdx] // cached at claim time
		pe.free--
		if pe.free == 0 {
			na.ownFree--
			if na.ownFree == 0 {
				p.drainOwn(na)
			}
		}
	}
	p.size--
	return pe.info, newExec, true
}

//custody:noalloc
func (p *execPool) drainUnres(ns *nodeState) {
	for _, t := range ns.posts {
		if t.satisfied {
			continue
		}
		t.unresAvail--
		if t.unresAvail == 0 {
			t.owner.satUnres--
			t.job.satUnres--
		}
	}
}

//custody:noalloc
func (p *execPool) raiseOwn(na *nodeApp) {
	for _, t := range na.posts {
		if t.satisfied {
			continue
		}
		if t.ownAvail == 0 {
			t.owner.satOwn++
			t.job.satOwn++
		}
		t.ownAvail++
	}
}

//custody:noalloc
func (p *execPool) drainOwn(na *nodeApp) {
	for _, t := range na.posts {
		if t.satisfied {
			continue
		}
		t.ownAvail--
		if t.ownAvail == 0 {
			t.owner.satOwn--
			t.job.satOwn--
		}
	}
}

// ---- int32 min-heap (executor indices; index order is ID order) ----

//custody:noalloc
func pushIntHeap(h *[]int32, v int32) {
	s := append(*h, v) //custody:ignore noalloc resHeap keeps its capacity across rounds; growth stops once warm
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

//custody:noalloc
func popIntHeap(h *[]int32) int32 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r] < s[l] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
