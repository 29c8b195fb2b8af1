package modelcheck

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/app"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/custodyd"
	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/manager"
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
	Server     bool // the sequence drove the custodyd service stack
	Applied    int  // commands applied (stops at the first violating command)
	Violations []Violation
	Digest     string // stable fingerprint of the final model state

	hub    *obsv.Hub // retained for the -explain chain of violation reports
	rounds int       // allocation rounds the observer saw
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Repro returns the reproducer that replays this run.
func (r *Result) Repro() Repro {
	return Repro{Seed: r.Seed, Commands: r.Commands, Server: r.Server}
}

// forwardTracer breaks the construction cycle: the driver needs its Tracer
// at New time, but the Model needs the driver's cluster topology.
type forwardTracer struct{ dst trace.Tracer }

func (f *forwardTracer) Emit(e trace.Event) {
	if f.dst != nil {
		f.dst.Emit(e)
	}
}

// harness wires one fresh stack to the model checker. Both modes build it
// from one custodyd.Config and differ only in how they build the stack and
// how they apply a command: driver mode drives a bare driver built from
// Config.DriverConfig, service mode drives a custodyd.Service's op log
// (server.go). The model and observer attachment, the fault picker, the
// check battery, step, the run loop and the digest are shared.
type harness struct {
	server bool
	cfg    custodyd.Config
	fw     *forwardTracer

	// The current incarnation's stack and the checkers attached to it.
	drv   *driver.Driver
	mgr   *manager.Custody
	hub   *obsv.Hub
	files []*hdfs.File
	model *Model
	obs   *checkObserver

	faults faultPicker

	// Driver mode.
	apps    []*app.Application
	active  int   // activated applications (≥1)
	nextJob []int // per-app next job ID

	// Service mode.
	svc     *custodyd.Service
	jnl     *custodyd.MemJournal
	crashes int

	curCmd     int
	violations []Violation
}

func newHarness(seed uint64, server bool) *harness {
	h := &harness{server: server, fw: &forwardTracer{}, faults: newFaultPicker()}
	cfg := custodyd.DefaultConfig()
	cfg.Seed = seed
	cfg.Nodes = checkNodes
	cfg.ExecutorsPerNode = execsPerNode
	cfg.SlotsPerExecutor = slotsPerExec
	cfg.RackSize = 3
	cfg.Replication = 2
	cfg.MaxTenants = MaxApps
	cfg.Files = []custodyd.FileSpec{{Name: "mc-a", Blocks: 4}, {Name: "mc-b", Blocks: 6}}
	cfg.Tracer = h.fw
	h.cfg = cfg
	if server {
		h.bootService()
	} else {
		h.bootDriver()
	}
	return h
}

// bootDriver builds the driver-mode stack: the service's driver
// configuration, with every application registered up front (the driver
// forbids registration after Start) and activated by submit-app.
func (h *harness) bootDriver() {
	mgr := manager.NewCustody()
	hub := obsv.NewHub(0)
	dcfg := h.cfg.DriverConfig(mgr)
	dcfg.Obsv = hub
	h.attach(driver.New(dcfg), mgr, hub)
	for _, spec := range h.cfg.Files {
		f, err := h.drv.CreateInput(spec.Name, spec.Blocks*h.cfg.BlockSize)
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
}

// attach points the checkers at a freshly built stack: a new model fed by
// the forward tracer, a new round observer teeing into the hub, and the
// manager's checks. Service mode calls it from custodyd's BootHook on every
// incarnation, before the journal replays, so the model is rebuilt from
// genesis.
func (h *harness) attach(drv *driver.Driver, mgr *manager.Custody, hub *obsv.Hub) {
	h.drv, h.mgr, h.hub = drv, mgr, hub
	h.model = newModel(drv.Cluster(), h.report)
	h.fw.dst = h.model
	var slots []int
	for _, e := range drv.Cluster().Executors() {
		slots = append(slots, e.Slots())
	}
	h.obs = newCheckObserver(slots, hub, h.report)
	mgr.Opts.Observer = h.obs
	// Re-run every round through the frozen reference oracle: observer
	// invariants see fairness-key order but not which executor a tie
	// resolved to, so a tie-break bug is only visible as a plan divergence.
	mgr.SelfCheck = true
	// Policy-generic plan contract (policy.Validate) for whichever policy
	// the set-policy op selects, the default included.
	mgr.PlanCheck = true
}

// report records one violation against the command being applied.
func (h *harness) report(rule, detail string, app, job int) {
	h.violations = append(h.violations, Violation{Cmd: h.curCmd, Rule: rule, Detail: detail, App: app, Job: job})
}

// applyDriver executes one driver-mode command against the live stack.
// Inapplicable targets degrade to no-ops so every subsequence of a sequence
// stays valid.
func (h *harness) applyDriver(c Command) {
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
		if f, ok := h.faults.inject(h.drv, c); ok {
			chaos.Apply(h.drv, f)
		}
	case OpRestoreFault:
		if f, ok := h.faults.restore(h.drv, c); ok {
			chaos.Revert(h.drv, f)
		}
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

// faultPicker maps a fault command's operands to a concrete chaos.Fault in
// both modes; driver mode applies it with chaos.Apply/Revert, service mode
// logs it with Service.InjectFault/RestoreFault. Its target bookkeeping
// serves restore selection only — checking never reads it. Concurrent
// whole-node failures are capped at Replication-1 (= 1) so no block can
// lose every replica: data loss is a legal outcome of over-failing, not a
// scheduler bug, and would drown the audit signal.
type faultPicker struct {
	failedNode int // the one failed node; -1 when none
	slowDisk   map[int]bool
	degraded   map[int]bool
}

func newFaultPicker() faultPicker {
	return faultPicker{failedNode: -1, slowDisk: map[int]bool{}, degraded: map[int]bool{}}
}

// inject maps fault family A on target B to a fault, or false when the
// family's target is not applicable.
func (p *faultPicker) inject(d *driver.Driver, c Command) (chaos.Fault, bool) {
	cl := d.Cluster()
	node := c.B % checkNodes
	switch c.A % nFaultKinds {
	case 0:
		if p.failedNode >= 0 || !cl.NodeAlive(node) {
			return chaos.Fault{}, false
		}
		p.failedNode = node
		return chaos.Fault{Kind: chaos.NodeFlap, Node: node, Exec: -1}, true
	case 1:
		return chaos.Fault{Kind: chaos.ExecutorCrash, Node: -1, Exec: c.B % cl.TotalExecutors()}, true
	case 2:
		return chaos.Fault{Kind: chaos.FlakyDataNode, Node: node, Exec: -1}, true
	case 3:
		return chaos.Fault{Kind: chaos.StaleMetadata, Node: -1, Exec: -1}, true
	case 4:
		p.slowDisk[node] = true
		return chaos.Fault{Kind: chaos.SlowDisk, Node: node, Exec: -1, Factor: 0.25}, true
	case 5:
		p.degraded[node] = true
		return chaos.Fault{Kind: chaos.LinkDegrade, Node: node, Exec: -1, Factor: 0.25}, true
	default:
		groups := make([]int, checkNodes)
		for i := range groups {
			if i >= checkNodes/2 {
				groups[i] = 1
			}
		}
		return chaos.Fault{Kind: chaos.Partition, Node: -1, Exec: -1, Groups: groups}, true
	}
}

// restore maps fault family A to its lowest-numbered active target,
// deterministically, or false when none is active.
func (p *faultPicker) restore(d *driver.Driver, c Command) (chaos.Fault, bool) {
	cl := d.Cluster()
	switch c.A % nFaultKinds {
	case 0:
		if p.failedNode < 0 {
			return chaos.Fault{}, false
		}
		f := chaos.Fault{Kind: chaos.NodeFlap, Node: p.failedNode, Exec: -1}
		p.failedNode = -1
		return f, true
	case 1:
		for _, e := range cl.Executors() {
			if !e.Alive() && cl.NodeAlive(e.Node.ID) {
				return chaos.Fault{Kind: chaos.ExecutorCrash, Node: -1, Exec: e.ID}, true
			}
		}
	case 2:
		for n := 0; n < checkNodes; n++ {
			if d.NameNode().DataNode(n).Suspended() {
				return chaos.Fault{Kind: chaos.FlakyDataNode, Node: n, Exec: -1}, true
			}
		}
	case 3:
		return chaos.Fault{Kind: chaos.StaleMetadata, Node: -1, Exec: -1}, true
	case 4:
		for n := 0; n < checkNodes; n++ {
			if p.slowDisk[n] {
				delete(p.slowDisk, n)
				return chaos.Fault{Kind: chaos.SlowDisk, Node: n, Exec: -1, Factor: 0.25}, true
			}
		}
	case 5:
		for n := 0; n < checkNodes; n++ {
			if p.degraded[n] {
				delete(p.degraded, n)
				return chaos.Fault{Kind: chaos.LinkDegrade, Node: n, Exec: -1, Factor: 0.25}, true
			}
		}
	default:
		return chaos.Fault{Kind: chaos.Partition, Node: -1, Exec: -1}, true
	}
	return chaos.Fault{}, false
}

// check runs the post-command invariant battery: model-vs-cluster slot
// ledger, replica-map hygiene, the driver's cross-layer audit, the
// reference-oracle differential and the policy-generic plan contract.
func (h *harness) check() {
	h.model.Compare(h.drv.Cluster())
	h.model.CheckReplicaMap(h.drv.NameNode(), h.files)
	if err := h.drv.Audit(); err != nil {
		h.report("audit", err.Error(), -1, -1)
	}
	if err := h.mgr.SelfCheckErr; err != nil {
		h.report("selfcheck", err.Error(), -1, -1)
	}
	if err := h.mgr.PlanCheckErr; err != nil {
		h.report("plancheck", err.Error(), -1, -1)
	}
}

// step applies one command and checks invariants, converting panics
// anywhere in the stack into violations (a crash is a counterexample, not
// a harness failure). After a panic the driver's audit runs over the state
// the crash left, so the counterexample names the broken invariant behind
// it when there is one.
func (h *harness) step(i int, c Command) {
	h.curCmd = i
	defer func() {
		if r := recover(); r != nil {
			h.report("panic", fmt.Sprint(r), -1, -1)
			h.postMortem()
		}
	}()
	if h.server {
		h.applyService(c)
	} else {
		h.applyDriver(c)
	}
	h.check()
}

// postMortem reports the driver's audit over a crashed command's state,
// where the audit may itself crash.
func (h *harness) postMortem() {
	defer func() {
		if r := recover(); r != nil {
			h.report("audit", fmt.Sprintf("audit panicked: %v", r), -1, -1)
		}
	}()
	if err := h.drv.Audit(); err != nil {
		h.report("audit", err.Error(), -1, -1)
	}
}

// run executes the command sequence on a fresh stack of the given mode
// seeded with seed, stopping at the first command that produces a
// violation. It is a pure function of its arguments: the same
// (seed, cmds, server) yields a byte-identical Result, including the
// digest.
func run(seed uint64, cmds []Command, server bool) *Result {
	h := newHarness(seed, server)
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
		Server:     server,
		Applied:    applied,
		Violations: h.violations,
		Digest:     h.digest(),
		hub:        h.hub,
		rounds:     h.obs.rounds,
	}
}

// Run executes a driver-mode command sequence on a fresh stack.
func Run(seed uint64, cmds []Command) *Result { return run(seed, cmds, false) }

// RunServer executes a service-mode command sequence on a fresh service.
func RunServer(seed uint64, cmds []Command) *Result { return run(seed, cmds, true) }

// Replay runs a reproducer on the stack it was recorded from.
func Replay(r Repro) *Result { return run(r.Seed, r.Commands, r.Server) }

// Check generates n driver-mode commands from seed and runs them.
func Check(seed uint64, n int) *Result { return Run(seed, Generate(seed, n)) }

// digest fingerprints the final state: model ledger, observer counters and
// any violations, plus the service digest (op log position, tenant ledgers,
// driver metrics) and crash count in service mode, or the policy and
// simulated time in driver mode. Two identical runs must produce the same
// digest — the determinism test's gate.
func (h *harness) digest() string {
	var b strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	if h.server {
		line("svc=%s crashes=%d", h.svc.Digest(), h.crashes)
	}
	for _, l := range h.model.digestLines() {
		line("%s", l)
	}
	line("rounds=%d decisions=%d grants=%d", h.obs.rounds, h.obs.decisions, h.obs.grants)
	if !h.server {
		line("policy=%s", h.mgr.PolicyName())
		line("t=%.6f", h.drv.Engine().Now())
	}
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
