package modelcheck

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/obsv"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Harness shape: a cluster small enough that a 25-command sequence runs in
// about a millisecond, yet contended enough (3 apps over 12 executors, 2
// replicas) that allocation rounds actually compete.
const (
	// MaxApps is the number of pre-registered applications; SubmitApp
	// activates them one by one (the driver forbids registration after
	// Start).
	MaxApps      = 3
	checkNodes   = 6
	execsPerNode = 2
	slotsPerExec = 2
	nFaultKinds  = 7
)

// Violation is one invariant breach detected during a run. App/Job anchor
// the provenance -explain chain when the breach involves a decision or
// grant; both are -1 for model-side breaches.
type Violation struct {
	Cmd    int    `json:"cmd"` // index of the command being applied
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
	App    int    `json:"app"`
	Job    int    `json:"job"`
}

func (v Violation) String() string {
	return fmt.Sprintf("cmd %d [%s] %s", v.Cmd, v.Rule, v.Detail)
}

// Result is the outcome of running one command sequence.
type Result struct {
	Seed       uint64
	Commands   []Command
	Applied    int // commands applied (stops at the first violating command)
	Violations []Violation
	Digest     string // stable fingerprint of the final model state

	hub *obsv.Hub // retained for the -explain chain of violation reports
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// forwardTracer breaks the construction cycle: the driver needs its Tracer
// at New time, but the Model needs the driver's cluster topology.
type forwardTracer struct{ dst trace.Tracer }

func (f *forwardTracer) Emit(e trace.Event) {
	if f.dst != nil {
		f.dst.Emit(e)
	}
}

// harness wires one fresh core+manager+driver stack to the model checker.
type harness struct {
	drv   *driver.Driver
	mgr   *manager.Custody
	hub   *obsv.Hub
	model *Model
	obs   *checkObserver
	apps  []*app.Application
	files []*hdfs.File

	active  int   // activated applications (≥1)
	nextJob []int // per-app next job ID

	// Fault bookkeeping for restore target selection (selection only —
	// checking never reads these).
	failedNode int // ≤1 concurrent node failure; -1 when none
	slowDisk   map[int]bool
	degraded   map[int]bool

	curCmd     int
	violations []Violation
}

func newHarness(seed uint64) *harness {
	h := &harness{failedNode: -1, slowDisk: map[int]bool{}, degraded: map[int]bool{}}
	report := func(rule, detail string, app, job int) {
		h.violations = append(h.violations, Violation{Cmd: h.curCmd, Rule: rule, Detail: detail, App: app, Job: job})
	}

	cfg := driver.DefaultConfig()
	cfg.Seed = seed
	cfg.Nodes = checkNodes
	cfg.ExecutorsPerNode = execsPerNode
	cfg.SlotsPerExecutor = slotsPerExec
	cfg.RackSize = 3
	cfg.BlockSize = 32 << 20
	cfg.Replication = 2
	cfg.Net = netsim.Config{UplinkBps: 250e6, DownlinkBps: 5e9, DiskBps: 400e6}
	cfg.LocalityWait = 0.5
	cfg.ExecutorStartupSec = 0
	cfg.ComputeNoise = 0
	cfg.EnableResilience()

	h.mgr = manager.NewCustody()
	cfg.Manager = h.mgr
	h.hub = obsv.NewHub(0)
	cfg.Obsv = h.hub
	fw := &forwardTracer{}
	cfg.Tracer = fw

	h.drv = driver.New(cfg)
	h.model = newModel(h.drv.Cluster(), report)
	fw.dst = h.model

	var slots []int
	for _, e := range h.drv.Cluster().Executors() {
		slots = append(slots, e.Slots())
	}
	h.obs = newCheckObserver(slots, h.hub, report)
	h.mgr.Opts.Observer = h.obs
	// Re-run every round through the frozen reference oracle: observer
	// invariants see fairness-key order but not which executor a tie
	// resolved to, so a tie-break bug is only visible as a plan divergence.
	h.mgr.SelfCheck = true
	// Policy-generic plan contract (policy.Validate) for whichever policy
	// the set-policy op selects, the default included.
	h.mgr.PlanCheck = true

	for _, in := range []struct {
		name   string
		blocks int64
	}{{"mc-a", 4}, {"mc-b", 6}} {
		f, err := h.drv.CreateInput(in.name, in.blocks*cfg.BlockSize)
		if err != nil {
			panic(err) // static configuration; cannot fail
		}
		h.files = append(h.files, f)
	}
	for i := 0; i < MaxApps; i++ {
		h.apps = append(h.apps, h.drv.RegisterApp(fmt.Sprintf("mc-%d", i)))
	}
	h.drv.Start()
	h.active = 1
	h.nextJob = make([]int, MaxApps)
	return h
}

// apply executes one command against the live stack. Inapplicable targets
// degrade to no-ops so every subsequence of a sequence stays valid.
func (h *harness) apply(c Command) {
	eng := h.drv.Engine()
	cl := h.drv.Cluster()
	switch c.Op {
	case OpSubmitApp:
		if h.active < MaxApps {
			h.active++
		}
	case OpSubmitJob:
		ai := c.A % h.active
		a := h.apps[ai]
		h.nextJob[ai]++
		h.drv.SubmitJobAt(eng.Now(), a, h.buildJob(h.nextJob[ai], c.B))
		eng.RunUntil(eng.Now()) // deliver the submission event
	case OpGrantRound:
		h.mgr.Reallocate(h.drv)
		h.drv.Kick()
	case OpRevokeExecutor:
		e := cl.Executor(c.A % cl.TotalExecutors())
		if e.Alive() && e.Owner() != cluster.NoApp && e.Running() == 0 {
			h.drv.Release(e)
		}
	case OpInjectFault:
		h.injectFault(c)
	case OpRestoreFault:
		h.restoreFault(c)
	case OpAdvanceClock:
		eng.RunUntil(eng.Now() + c.F)
	case OpCompleteTask:
		target := h.model.doneCount + 1
		for steps := 0; h.model.doneCount < target && steps < 20000; steps++ {
			if !eng.Step() {
				break
			}
		}
	case OpSetPolicy:
		h.setPolicy(c.A)
	}
}

// policyTarget maps a command operand to a registry policy name.
func policyTarget(a int) string {
	names := policy.Names()
	if a < 0 {
		a = -a
	}
	return names[a%len(names)]
}

// setPolicy switches the manager's allocation policy and re-attaches or
// detaches the Custody-specific invariants: the SelfCheck reference
// differential and the observer's fairness/ordering rules apply only while
// the custody policy is active; the policy-generic core (model ledger,
// double-grant, replica hygiene, audit, plan contract) always runs.
func (h *harness) setPolicy(a int) {
	name := policyTarget(a)
	if err := h.mgr.SetPolicy(name); err != nil {
		panic(err) // registry names are closed; cannot fail
	}
	custody := name == policy.Custody
	h.mgr.SelfCheck = custody
	h.obs.custody = custody
}

// buildJob constructs one of four small job shapes; all input blocks come
// from the two pre-created files.
func (h *harness) buildJob(id, shape int) *app.Job {
	fa, fb := h.files[0], h.files[1]
	switch shape % 4 {
	case 0:
		b := app.NewJob(id, "mc-tiny", "mc-a")
		b.AddInputStage("map", fa.Blocks[:2], app.TaskSpec{ComputeSec: 0.3, OutputBytes: 4 << 20})
		return b.Build()
	case 1:
		b := app.NewJob(id, "mc-wide", "mc-a")
		b.AddInputStage("map", fa.Blocks, app.TaskSpec{ComputeSec: 0.25, OutputBytes: 4 << 20})
		return b.Build()
	case 2:
		b := app.NewJob(id, "mc-mid", "mc-b")
		b.AddInputStage("map", fb.Blocks[2:5], app.TaskSpec{ComputeSec: 0.4, OutputBytes: 4 << 20})
		return b.Build()
	default:
		b := app.NewJob(id, "mc-shuffle", "mc-b")
		in := b.AddInputStage("map", fb.Blocks[:3], app.TaskSpec{ComputeSec: 0.3, OutputBytes: 8 << 20})
		b.AddShuffleStage("reduce", []*app.Stage{in}, 2, 8<<20, app.TaskSpec{ComputeSec: 0.2})
		return b.Build()
	}
}

// injectFault applies fault family A on target B. Concurrent whole-node
// failures are capped at Replication-1 (= 1) so no block can lose every
// replica: data loss is a legal outcome of over-failing, not a scheduler
// bug, and would drown the audit signal.
func (h *harness) injectFault(c Command) {
	cl := h.drv.Cluster()
	node := c.B % checkNodes
	switch c.A % nFaultKinds {
	case 0:
		if h.failedNode < 0 && h.drv.InjectNodeFail(node) {
			h.failedNode = node
		}
	case 1:
		h.drv.InjectExecutorFail(c.B % cl.TotalExecutors())
	case 2:
		h.drv.InjectDataNodeFlake(node)
	case 3:
		h.drv.InjectStaleMetadata()
	case 4:
		if h.drv.InjectSlowDisk(node, 0.25) {
			h.slowDisk[node] = true
		}
	case 5:
		if h.drv.InjectLinkDegrade(node, 0.25) {
			h.degraded[node] = true
		}
	case 6:
		groups := make([]int, checkNodes)
		for i := range groups {
			if i >= checkNodes/2 {
				groups[i] = 1
			}
		}
		h.drv.InjectPartition(groups)
	}
}

// restoreFault reverts fault family A, picking the lowest-numbered active
// target deterministically.
func (h *harness) restoreFault(c Command) {
	cl := h.drv.Cluster()
	nn := h.drv.NameNode()
	switch c.A % nFaultKinds {
	case 0:
		if h.failedNode >= 0 && h.drv.InjectNodeRecover(h.failedNode) {
			h.failedNode = -1
		}
	case 1:
		for _, e := range cl.Executors() {
			if !e.Alive() && cl.NodeAlive(e.Node.ID) {
				h.drv.InjectExecutorRecover(e.ID)
				break
			}
		}
	case 2:
		for n := 0; n < checkNodes; n++ {
			if nn.DataNode(n).Suspended() {
				h.drv.RestoreDataNode(n)
				break
			}
		}
	case 3:
		h.drv.RestoreMetadata()
	case 4:
		for n := 0; n < checkNodes; n++ {
			if h.slowDisk[n] {
				h.drv.RestoreDisk(n)
				delete(h.slowDisk, n)
				break
			}
		}
	case 5:
		for n := 0; n < checkNodes; n++ {
			if h.degraded[n] {
				h.drv.RestoreLinks(n)
				delete(h.degraded, n)
				break
			}
		}
	case 6:
		h.drv.HealPartition()
	}
}

// check runs the post-command invariant battery: model-vs-cluster slot
// ledger, replica-map hygiene, and the driver's cross-layer audit.
func (h *harness) check() {
	h.model.Compare(h.drv.Cluster())
	h.model.CheckReplicaMap(h.drv.NameNode(), h.files)
	if err := h.drv.Audit(); err != nil {
		h.violations = append(h.violations, Violation{Cmd: h.curCmd, Rule: "audit", Detail: err.Error(), App: -1, Job: -1})
	}
	if err := h.mgr.SelfCheckErr; err != nil {
		h.violations = append(h.violations, Violation{Cmd: h.curCmd, Rule: "selfcheck", Detail: err.Error(), App: -1, Job: -1})
	}
	if err := h.mgr.PlanCheckErr; err != nil {
		h.violations = append(h.violations, Violation{Cmd: h.curCmd, Rule: "plancheck", Detail: err.Error(), App: -1, Job: -1})
	}
}

// step applies one command and checks invariants, converting panics
// anywhere in the stack into violations (a crash is a counterexample, not
// a harness failure).
func (h *harness) step(i int, c Command) {
	h.curCmd = i
	defer func() {
		if r := recover(); r != nil {
			h.violations = append(h.violations, Violation{Cmd: i, Rule: "panic", Detail: fmt.Sprint(r), App: -1, Job: -1})
		}
	}()
	h.apply(c)
	h.check()
}

// Run executes the command sequence on a fresh stack seeded with seed,
// stopping at the first command that produces a violation. It is a pure
// function of its arguments: the same (seed, cmds) yields a byte-identical
// Result, including the digest.
func Run(seed uint64, cmds []Command) *Result {
	h := newHarness(seed)
	applied := 0
	for i, c := range cmds {
		h.step(i, c)
		applied++
		if len(h.violations) > 0 {
			break
		}
	}
	return &Result{
		Seed:       seed,
		Commands:   cmds,
		Applied:    applied,
		Violations: h.violations,
		Digest:     h.digest(),
		hub:        h.hub,
	}
}

// Check generates n commands from seed and runs them.
func Check(seed uint64, n int) *Result { return Run(seed, Generate(seed, n)) }

// digest fingerprints the final state: model ledger, observer counters,
// simulated time, and any violations. Two identical runs must produce the
// same digest — the determinism test's gate.
func (h *harness) digest() string {
	var b strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	for _, l := range h.model.digestLines() {
		line("%s", l)
	}
	line("rounds=%d decisions=%d grants=%d", h.obs.rounds, h.obs.decisions, h.obs.grants)
	line("policy=%s", h.mgr.PolicyName())
	line("t=%.6f", h.drv.Engine().Now())
	for _, v := range h.violations {
		line("%s", v.String())
	}
	// Inline FNV-1a, matching xrand's label-hash idiom.
	s := b.String()
	hash := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		hash = (hash ^ uint64(s[i])) * 0x100000001B3
	}
	return fmt.Sprintf("%016x", hash)
}

// WriteReport renders a violation report: the (shrunken) command sequence,
// each violation, and — when a violation anchors to an (app, job) pair —
// the decision-provenance explain chain behind the offending grants.
func (r *Result) WriteReport(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "modelcheck seed=%d: %d command(s), %d violation(s)\n", r.Seed, len(r.Commands), len(r.Violations))
	for i, c := range r.Commands {
		fmt.Fprintf(&b, "  %2d: %s\n", i, c)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, v := range r.Violations {
		if v.App >= 0 && v.Job >= 0 && r.hub != nil {
			return r.hub.Flight.Explain(w, v.App, v.Job)
		}
	}
	return nil
}
