// Package manager implements the cluster-manager strategies compared in the
// paper: Spark's standalone manager (static, data-unaware — the baseline),
// Custody (data-aware two-level allocation, the contribution), and a
// Mesos-like offer-based dynamic manager (the other baseline family
// discussed in §II-A and §VII).
package manager

import (
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// Env is the slice of the simulation driver a manager interacts with.
type Env interface {
	// Now returns the current simulated time.
	Now() float64
	// Cluster exposes executor state.
	Cluster() *cluster.Cluster
	// NameNode answers block-location queries (§IV-C).
	NameNode() *hdfs.NameNode
	// Apps returns the registered applications in registration order.
	Apps() []*app.Application
	// PendingInputTasks returns an app's ready-but-unlaunched input tasks.
	PendingInputTasks(a *app.Application) []*app.Task
	// PendingCount returns the number of queued (unlaunched) tasks of an
	// app, input or not.
	PendingCount(a *app.Application) int
	// Allocate gives an idle, free executor to an application.
	Allocate(e *cluster.Executor, id cluster.AppID)
	// Release returns an app's idle executor to the free pool.
	Release(e *cluster.Executor)
	// TryLaunch offers an executor to an app's task scheduler; if the
	// scheduler accepts, the executor is allocated to the app and the task
	// launched, and TryLaunch reports true. Used by the offer-based manager.
	TryLaunch(e *cluster.Executor, a *app.Application) bool
	// Collector exposes the run's collector for manager-side counters.
	Collector() *metrics.Collector
	// Schedule runs fn after delay simulated seconds (for offer retries).
	Schedule(delay float64, fn func())
	// Hint records a scheduling suggestion: the manager proposes running
	// the task on the given executor (§V: Custody "can submit both the
	// list of executors and the scheduling suggestions"). Task schedulers
	// may honor or ignore it; hints are cleared when the task launches.
	Hint(t *app.Task, execID int)
}

// Manager decides which executors each application holds.
type Manager interface {
	Name() string
	// Register is called once, after all applications are registered and
	// before any job is submitted (apps register at t=0, §VI-A2).
	Register(env Env)
	// OnJobSubmit is called when a user submits a job, before its tasks are
	// dispatched — the moment Custody performs allocation (§IV, §V).
	OnJobSubmit(env Env, a *app.Application, j *app.Job)
	// OnJobFinish is called when a job's last task completes.
	OnJobFinish(env Env, a *app.Application, j *app.Job)
	// OnExecutorIdle is called when an executor finished a task and the
	// owning application's scheduler had nothing to run on it.
	OnExecutorIdle(env Env, e *cluster.Executor)
	// OnNodeFail is called after a node failure has been processed (tasks
	// re-queued, executors dead, DataNode decommissioned), so the manager
	// can re-plan around the lost capacity.
	OnNodeFail(env Env, node int)
}

// ExecutorFaultHandler is an optional Manager capability: managers that
// implement it are told when a single executor crashes or restarts
// (finer-grained than OnNodeFail), so they can repair allocation plans
// mid-flight. The driver discovers it by type assertion; managers without
// it simply see the effects at their next allocation round.
type ExecutorFaultHandler interface {
	// OnExecutorFail is called after one executor died (tasks re-queued,
	// executor freed and marked dead).
	OnExecutorFail(env Env, execID int)
	// OnExecutorRecover is called after a crashed executor rejoined the
	// free pool.
	OnExecutorRecover(env Env, execID int)
}

// fairShare computes the per-application executor budget σ_i — the paper
// shares the cluster evenly among the registered applications (§VI-A2).
func fairShare(env Env) int {
	n := len(env.Apps())
	if n == 0 {
		return 0
	}
	return env.Cluster().TotalExecutors() / n
}

// Standalone mimics Spark's default standalone cluster manager (§II, §VII):
// when an application registers, it is handed a fixed set of executors with
// no regard to data placement, which it keeps for its whole lifetime. The
// paper's characterization — "existing cluster managers randomly allocate
// available resources to applications when launching executors" — is the
// Random mode; SpreadOut reproduces spark.deploy.spreadOut's round-robin.
type Standalone struct {
	// SpreadOut mirrors spark.deploy.spreadOut: executors are taken
	// round-robin across a random node permutation, maximizing the number
	// of distinct nodes per application. When false, each application
	// receives a uniformly random subset of the free executor slots.
	SpreadOut bool
	rng       *xrand.Rand
}

// NewStandalone builds the baseline manager.
func NewStandalone(rng *xrand.Rand, spreadOut bool) *Standalone {
	return &Standalone{SpreadOut: spreadOut, rng: rng.Fork("standalone")}
}

// Name implements Manager.
func (s *Standalone) Name() string { return "spark-standalone" }

// Register implements Manager: static allocation, data-unaware.
func (s *Standalone) Register(env Env) {
	cl := env.Cluster()
	share := fairShare(env)
	if s.SpreadOut {
		perm := s.rng.Perm(cl.NumNodes())
		next := 0
		for _, a := range env.Apps() {
			got := 0
			for got < share {
				found := false
				for scan := 0; scan < cl.NumNodes() && got < share; scan++ {
					node := perm[next%len(perm)]
					next++
					free := cl.FreeOnNode(node)
					if len(free) == 0 {
						continue
					}
					env.Allocate(free[0], a.ID)
					got++
					found = true
				}
				if !found {
					return // cluster exhausted
				}
			}
		}
		return
	}
	// Random mode: uniformly random free slots per application.
	for _, a := range env.Apps() {
		free := cl.Free()
		if len(free) == 0 {
			return
		}
		n := share
		if n > len(free) {
			n = len(free)
		}
		for _, idx := range s.rng.Sample(len(free), n) {
			env.Allocate(free[idx], a.ID)
		}
	}
}

// OnJobSubmit implements Manager (no-op: allocation is static).
func (s *Standalone) OnJobSubmit(Env, *app.Application, *app.Job) {}

// OnJobFinish implements Manager (no-op).
func (s *Standalone) OnJobFinish(Env, *app.Application, *app.Job) {}

// OnExecutorIdle implements Manager (no-op: executors are never returned).
func (s *Standalone) OnExecutorIdle(Env, *cluster.Executor) {}

// OnNodeFail implements Manager (no-op: the static allocation simply shrank).
func (s *Standalone) OnNodeFail(Env, int) {}
