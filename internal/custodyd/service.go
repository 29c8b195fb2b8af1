package custodyd

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/app"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/obsv"
	"repro/internal/workload"
)

// ErrTenantQuota is returned by Register when every tenant slot is taken.
var ErrTenantQuota = errors.New("custodyd: tenant quota exhausted")

// Service is the deterministic core of the allocation service: the warm
// manager.Custody session and driver stack, driven exclusively through
// committed ops. It is single-threaded by construction — the concurrent
// Server serializes access behind its mutex — so the whole package below
// this type stays inside the repo's determinism contract.
type Service struct {
	cfg Config
	jnl Journal
	drv *driver.Driver
	mgr *manager.Custody
	hub *obsv.Hub

	apps  []*app.Application
	files []*hdfs.File

	names   []string // active tenants; index is the tenant ID
	nextJob []int    // per-tenant next job ID

	seq            uint64
	submitted      int
	rounds         int
	degradedRounds int
	drains         int
	faultsApplied  int
	faultsReverted int
	revocations    int

	// broken is set when an op panicked mid-apply, leaving the stack in an
	// unknown state, or when a journal append failed, leaving the log's
	// tail unknown; every subsequent commit refuses with it.
	broken error
}

// NewService builds a fresh stack from cfg and replays jnl's ops into it.
// An empty journal is a cold boot; a loaded one is recovery. Live commits
// append to jnl, so passing a reopened WAL both replays and continues it.
func NewService(cfg Config, jnl Journal) (*Service, error) {
	return newService(cfg, jnl, func(*Service) error { return nil })
}

// newService is NewService with a hook called on the booted stack before
// the first op and after each replayed op; its error aborts the boot.
func newService(cfg Config, jnl Journal, replayed func(*Service) error) (*Service, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, jnl: jnl}
	s.mgr = manager.NewCustody()
	if cfg.Policy != "" {
		if err := s.mgr.SetPolicy(cfg.Policy); err != nil {
			return nil, fmt.Errorf("custodyd: %w", err)
		}
	}
	s.hub = obsv.NewHub(0)
	dcfg := cfg.driverConfig(s.mgr)
	dcfg.Obsv = s.hub
	s.mgr.Opts.Observer = s.hub
	s.drv = driver.New(dcfg)
	for _, spec := range cfg.Files {
		f, err := s.drv.CreateInput(spec.Name, spec.Blocks*cfg.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("custodyd: create input %q: %w", spec.Name, err)
		}
		s.files = append(s.files, f)
	}
	for i := 0; i < cfg.MaxTenants; i++ {
		s.apps = append(s.apps, s.drv.RegisterApp(fmt.Sprintf("slot-%d", i)))
	}
	s.drv.Start()
	s.nextJob = make([]int, cfg.MaxTenants)
	if cfg.BootHook != nil {
		cfg.BootHook(s)
	}
	if err := replayed(s); err != nil {
		return nil, err
	}
	err := jnl.Replay(func(op Op) error {
		if op.Seq != s.seq+1 {
			return fmt.Errorf("custodyd: journal gap: op %d follows seq %d", op.Seq, s.seq)
		}
		if err := s.checkOp(op); err != nil {
			return fmt.Errorf("custodyd: replay of op %d rejected: %w", op.Seq, err)
		}
		if err := s.apply(op); err != nil {
			return fmt.Errorf("custodyd: replay of op %d failed: %w", op.Seq, err)
		}
		return replayed(s)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Register activates the next tenant slot under the given name and returns
// its tenant ID.
func (s *Service) Register(name string) (int, error) {
	if err := s.commit(Op{Kind: OpRegisterApp, Name: name}); err != nil {
		return -1, err
	}
	return len(s.names) - 1, nil
}

// Submit logs and applies one job submission, returning the per-tenant job
// ID. The job itself is built deterministically from (workload kind, job
// ID, file), so the op fully determines the work.
func (s *Service) Submit(tenant int, kind string, file int) (int, error) {
	op := Op{Kind: OpSubmitJob, Tenant: tenant, Workload: kind, File: file}
	if err := s.commit(op); err != nil {
		return -1, err
	}
	return s.nextJob[tenant], nil
}

// ValidateSubmit reports whether a submission would be accepted, without
// committing anything — the Server's admission check.
func (s *Service) ValidateSubmit(tenant int, kind string, file int) error {
	return s.checkOp(Op{Kind: OpSubmitJob, Tenant: tenant, Workload: kind, File: file})
}

// Round runs one allocation round covering step simulated seconds (0 →
// roundSimStep). A degraded round skips the explicit Reallocate pass:
// executor churn still flows through the driver's own event-driven rounds
// (fallback-only locality), but no fresh data-aware plan is forced.
func (s *Service) Round(step float64, degraded bool) error {
	if step <= 0 {
		step = roundSimStep
	}
	return s.commit(Op{Kind: OpRound, Step: step, Degraded: degraded})
}

// InjectFault logs and applies a driver-level chaos fault.
func (s *Service) InjectFault(f chaos.Fault) error {
	return s.commit(Op{Kind: OpInjectFault, Fault: &f})
}

// RestoreFault logs and reverts a previously injected fault.
func (s *Service) RestoreFault(f chaos.Fault) error {
	return s.commit(Op{Kind: OpRestoreFault, Fault: &f})
}

// Drain runs the event engine until no work remains — every accepted job
// finishes. Used by graceful shutdown and by tests comparing end states.
func (s *Service) Drain() error {
	return s.commit(Op{Kind: OpDrain})
}

// RevokeExec logs and applies the revocation of one executor presumed dead
// — the Server's heartbeat reaper calls it when an executor goes silent
// past the deadline. An idle owned executor is released back to the pool; a
// busy one is failed so its running tasks reschedule; a dead or already
// pool-resident one makes the op a no-op, live and on replay alike.
func (s *Service) RevokeExec(exec int) error {
	return s.commit(Op{Kind: OpRevokeExec, Exec: exec})
}

// ExecOwned reports whether the executor currently belongs to any tenant —
// the reaper's gate for not logging revocations of executors the normal
// flow already returned to the pool.
func (s *Service) ExecOwned(exec int) bool {
	cl := s.drv.Cluster()
	if exec < 0 || exec >= cl.TotalExecutors() {
		return false
	}
	return cl.Executor(exec).Owner() != cluster.NoApp
}

// OwnsExec reports whether the executor currently belongs to the tenant —
// the heartbeat handler's filter for which reported executor IDs to track.
func (s *Service) OwnsExec(tenant, exec int) bool {
	if tenant < 0 || tenant >= len(s.names) {
		return false
	}
	cl := s.drv.Cluster()
	if exec < 0 || exec >= cl.TotalExecutors() {
		return false
	}
	return cl.Executor(exec).Owner() == s.apps[tenant].ID
}

// commit is the write-ahead path: validate, append, apply. Validation must
// precede the append so a rejected op can never reach the log (a logged op
// must re-apply cleanly on replay).
func (s *Service) commit(op Op) error {
	if s.broken != nil {
		return s.broken
	}
	op.Seq = s.seq + 1
	if err := s.checkOp(op); err != nil {
		return err
	}
	if err := s.jnl.Append(op); err != nil {
		// A failed WAL append truncates its entry away, but if that
		// truncation failed too the op may still be on disk. Reusing its
		// sequence number would then make the log unreplayable, so stop.
		s.broken = fmt.Errorf("custodyd: journal append of op %d: %w", op.Seq, err)
		return s.broken
	}
	return s.apply(op)
}

// checkOp validates an op against current state without side effects.
func (s *Service) checkOp(op Op) error {
	switch op.Kind {
	case OpRegisterApp:
		if op.Name == "" {
			return fmt.Errorf("custodyd: register-app needs a name")
		}
		if len(s.names) >= s.cfg.MaxTenants {
			return fmt.Errorf("%w (%d tenants)", ErrTenantQuota, s.cfg.MaxTenants)
		}
	case OpSubmitJob:
		if op.Tenant < 0 || op.Tenant >= len(s.names) {
			return fmt.Errorf("custodyd: unknown tenant %d (%d registered)", op.Tenant, len(s.names))
		}
		if !validWorkload(op.Workload) {
			return fmt.Errorf("custodyd: unknown workload %q (have %v)", op.Workload, workload.Kinds())
		}
		if op.File < 0 || op.File >= len(s.files) {
			return fmt.Errorf("custodyd: file index %d out of range (%d files)", op.File, len(s.files))
		}
	case OpRound:
		if op.Step <= 0 {
			return fmt.Errorf("custodyd: round step %v must be positive", op.Step)
		}
	case OpInjectFault, OpRestoreFault:
		if op.Fault == nil {
			return fmt.Errorf("custodyd: %s needs a fault", op.Kind)
		}
		if op.Fault.Kind == chaos.DaemonCrash {
			return fmt.Errorf("custodyd: daemon-crash is consumed by the harness, not logged as a driver fault")
		}
	case OpRevokeExec:
		if op.Exec < 0 || op.Exec >= s.drv.Cluster().TotalExecutors() {
			return fmt.Errorf("custodyd: executor %d out of range (%d executors)", op.Exec, s.drv.Cluster().TotalExecutors())
		}
	case OpDrain:
	default:
		return fmt.Errorf("custodyd: unknown op kind %q", op.Kind)
	}
	return nil
}

// apply mutates the stack. Panics anywhere below are converted into a
// permanent broken state: the op is already logged, so a deterministic
// panic would recur on every replay and refusing further writes is the
// honest failure mode.
func (s *Service) apply(op Op) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.broken = fmt.Errorf("custodyd: op %d (%s) panicked: %v", op.Seq, op.Kind, r)
			err = s.broken
		}
	}()
	s.seq = op.Seq
	eng := s.drv.Engine()
	switch op.Kind {
	case OpRegisterApp:
		s.names = append(s.names, op.Name)
	case OpSubmitJob:
		s.nextJob[op.Tenant]++
		j := workload.BuildJob(workload.Kind(op.Workload), s.nextJob[op.Tenant], s.files[op.File])
		s.drv.SubmitJobAt(eng.Now(), s.apps[op.Tenant], j)
		eng.RunUntil(eng.Now()) // deliver the submission event
		s.submitted++
	case OpRound:
		if !op.Degraded {
			s.mgr.Reallocate(s.drv)
		}
		s.drv.Kick()
		eng.RunUntil(eng.Now() + op.Step)
		s.rounds++
		if op.Degraded {
			s.degradedRounds++
		}
	case OpInjectFault:
		if chaos.Apply(s.drv, *op.Fault) {
			s.faultsApplied++
		}
	case OpRestoreFault:
		if chaos.Revert(s.drv, *op.Fault) {
			s.faultsReverted++
		}
	case OpRevokeExec:
		e := s.drv.Cluster().Executor(op.Exec)
		switch {
		case !e.Alive() || e.Owner() == cluster.NoApp:
			// Already dead or already back in the pool: the revocation was
			// raced by the normal flow and replays as the same no-op.
		case e.Running() == 0:
			s.drv.Release(e)
			s.revocations++
		default:
			// Presumed dead mid-task: releasing a busy executor would strand
			// its attempts, so fail it — the resilience layer reschedules the
			// running tasks and the manager replaces the capacity data-aware.
			s.drv.InjectExecutorFail(op.Exec)
			s.revocations++
		}
	case OpDrain:
		eng.Run()
		s.drains++
	}
	if s.cfg.AuditEveryOp {
		if aerr := s.drv.Audit(); aerr != nil {
			return fmt.Errorf("custodyd: audit after op %d (%s): %w", op.Seq, op.Kind, aerr)
		}
	}
	return nil
}

// validWorkload reports whether name is a known workload kind.
func validWorkload(name string) bool {
	for _, k := range workload.Kinds() {
		if string(k) == name {
			return true
		}
	}
	return false
}

// Accessors. The driver stack is exposed for harnesses (model checker,
// chaos storms) and the Server; mutating it outside ops voids recovery.

// Seq returns the last committed op sequence number.
func (s *Service) Seq() uint64 { return s.seq }

// Tenants returns the number of registered tenants.
func (s *Service) Tenants() int { return len(s.names) }

// JobsSubmitted returns the total accepted submissions.
func (s *Service) JobsSubmitted() int { return s.submitted }

// ExecRevocations returns how many revoke-exec ops actually moved an
// executor (conditional no-ops excluded).
func (s *Service) ExecRevocations() int { return s.revocations }

// JobsFinished returns the total completed jobs.
func (s *Service) JobsFinished() int {
	done := 0
	for _, a := range s.apps {
		done += jobsDone(a)
	}
	return done
}

// Outstanding returns the tenant's accepted but unfinished jobs: its
// submissions minus its completions (0 for an unknown tenant).
func (s *Service) Outstanding(tenant int) int {
	if tenant < 0 || tenant >= len(s.names) {
		return 0
	}
	return s.nextJob[tenant] - jobsDone(s.apps[tenant])
}

// jobsDone counts the application's completed jobs.
func jobsDone(a *app.Application) int {
	done := 0
	for _, j := range a.Jobs {
		if j.Complete() {
			done++
		}
	}
	return done
}

// Idle reports whether every accepted job has finished.
func (s *Service) Idle() bool { return s.JobsFinished() == s.submitted }

// Broken returns the permanent failure set by a panicking op or a failed
// journal append, if any.
func (s *Service) Broken() error { return s.broken }

// Driver exposes the underlying driver.
func (s *Service) Driver() *driver.Driver { return s.drv }

// Manager exposes the Custody manager.
func (s *Service) Manager() *manager.Custody { return s.mgr }

// Hub exposes the provenance hub. Attach sinks only after NewService
// returns: replay runs sinkless so recovery does not re-emit history.
func (s *Service) Hub() *obsv.Hub { return s.hub }

// Files exposes the pre-created HDFS inputs.
func (s *Service) Files() []*hdfs.File { return s.files }

// TenantStatus is the per-tenant slice of a Snapshot.
type TenantStatus struct {
	Tenant  int    `json:"tenant"`
	Name    string `json:"name"`
	Jobs    int    `json:"jobs"`
	Done    int    `json:"done"`
	Pending int    `json:"pending"`
	Execs   []int  `json:"execs"`
}

// Snapshot is the allocator-visible state summary: what the status
// endpoint serves and what checkpoints persist.
type Snapshot struct {
	Seq            uint64         `json:"seq"`
	Digest         string         `json:"digest"`
	SimTime        float64        `json:"sim_time"`
	Rounds         int            `json:"rounds"`
	DegradedRounds int            `json:"degraded_rounds"`
	JobsSubmitted  int            `json:"jobs_submitted"`
	JobsFinished   int            `json:"jobs_finished"`
	Idle           bool           `json:"idle"`
	Tenants        []TenantStatus `json:"tenants"`
}

// Snapshot summarizes the current state, digest included.
func (s *Service) Snapshot() Snapshot {
	snap := Snapshot{
		Seq:            s.seq,
		Digest:         s.Digest(),
		SimTime:        s.drv.Engine().Now(),
		Rounds:         s.rounds,
		DegradedRounds: s.degradedRounds,
		JobsSubmitted:  s.submitted,
		JobsFinished:   s.JobsFinished(),
		Tenants:        s.tenantStatuses(),
	}
	snap.Idle = snap.JobsFinished == snap.JobsSubmitted
	return snap
}

// tenantStatuses renders the per-tenant state, executor sets sorted.
func (s *Service) tenantStatuses() []TenantStatus {
	var out []TenantStatus
	cl := s.drv.Cluster()
	for i, name := range s.names {
		a := s.apps[i]
		var execs []int
		for _, e := range cl.Owned(a.ID) {
			execs = append(execs, e.ID)
		}
		sort.Ints(execs)
		out = append(out, TenantStatus{
			Tenant:  i,
			Name:    name,
			Jobs:    s.nextJob[i],
			Done:    jobsDone(a),
			Pending: s.drv.PendingCount(a),
			Execs:   execs,
		})
	}
	return out
}

// Digest fingerprints the allocator-visible state: op position, simulated
// time, per-tenant ledgers (jobs, completions, pending work, owned
// executors), driver metrics, and provenance counters. Replaying the same
// op log always yields the same digest — the recovery acceptance gate.
func (s *Service) Digest() string {
	var b strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	line("seq=%d t=%.6f rounds=%d degraded=%d drains=%d faults=%d/%d revoked=%d",
		s.seq, s.drv.Engine().Now(), s.rounds, s.degradedRounds, s.drains, s.faultsApplied, s.faultsReverted, s.revocations)
	for _, ts := range s.tenantStatuses() {
		line("tenant %d name=%q jobs=%d done=%d pending=%d execs=%v",
			ts.Tenant, ts.Name, ts.Jobs, ts.Done, ts.Pending, ts.Execs)
	}
	col := s.drv.Collector()
	line("jobs=%d tasks=%d realloc=%d migrations=%d retries=%d attempt_failures=%d blacklist=%d",
		len(col.Jobs), len(col.Tasks), col.Reallocations, col.ExecutorMigrations,
		col.TaskRetries, col.AttemptFailures, col.BlacklistEvents)
	dd, dg := s.hub.Flight.Dropped()
	line("obsv rounds=%d dropped=%d/%d", s.hub.Flight.Rounds(), dd, dg)
	// Inline FNV-1a, matching xrand's label-hash idiom.
	str := b.String()
	hash := uint64(14695981039346656037)
	for i := 0; i < len(str); i++ {
		hash = (hash ^ uint64(str[i])) * 0x100000001B3
	}
	return fmt.Sprintf("%016x", hash)
}
