// Package custody is the public API of the Custody reproduction: data-aware
// executor allocation for cluster-based data-parallel frameworks (Ma, Jiang,
// Li & Li, IEEE CLUSTER 2016), together with the discrete-event cluster
// simulator used to evaluate it.
//
// Three levels of use:
//
//  1. The allocation algorithms alone — Allocate runs Custody's two-level
//     data-aware allocation (Algorithms 1 and 2 of the paper) over a
//     snapshot of application demands and idle executors. This is the piece
//     a real cluster manager would embed.
//
//  2. Whole-cluster simulations — NewSimulation / Run execute workloads on
//     a simulated cluster (HDFS-like storage, max-min-fair network fabric,
//     delay scheduling) under a choice of cluster managers: Custody, a
//     Spark-standalone-like static manager, or a Mesos-like offer manager.
//
//  3. Paper reproduction — Figures and the ablation runners regenerate the
//     evaluation section's tables and figures.
package custody

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ---- Level 1: the allocation algorithms (internal/core) ----

// BlockID identifies an HDFS block cluster-wide.
type BlockID = hdfs.BlockID

// TaskDemand is one input task's data requirement: the block it reads and
// the nodes storing replicas of that block.
type TaskDemand = core.TaskDemand

// JobDemand is one job's set of input-task demands.
type JobDemand = core.JobDemand

// AppDemand describes one application's pending demand, executor budget
// σ, held executors ζ, and locality history.
type AppDemand = core.AppDemand

// ExecInfo describes an idle executor available for allocation.
type ExecInfo = core.ExecInfo

// Assignment allocates one executor slot to an application.
type Assignment = core.Assignment

// Plan is the output of an allocation round.
type Plan = core.Plan

// AllocateOptions tunes the allocator.
type AllocateOptions = core.Options

// Allocate runs Custody's two-level data-aware allocation (Algorithm 1:
// inter-application min-locality fairness; Algorithm 2: intra-application
// priority by fewest remaining input tasks) and returns the executor
// assignments.
func Allocate(apps []AppDemand, idle []ExecInfo, opts AllocateOptions) Plan {
	return core.Allocate(apps, idle, opts)
}

// DefaultAllocateOptions mirrors the paper's configuration.
func DefaultAllocateOptions() AllocateOptions { return core.DefaultOptions() }

// OptimalIntraObjective solves the intra-application constrained matching
// exactly (min-cost flow) — the comparator for Algorithm 2's greedy.
func OptimalIntraObjective(jobs []JobDemand, idle []ExecInfo, budget int) float64 {
	return core.OptimalIntraObjective(jobs, idle, budget)
}

// FractionalMaxMin computes the LP-relaxed maximum-concurrent-flow upper
// bound on the max-min fraction of local tasks (§III-B).
func FractionalMaxMin(apps []AppDemand, idle []ExecInfo, tol float64) float64 {
	return core.FractionalMaxMin(apps, idle, tol)
}

// LocalityNetwork is the paper's Fig. 2 flow network; render it with DOT or
// inspect unservable tasks.
type LocalityNetwork = core.LocalityNetwork

// BuildLocalityNetwork constructs the §III-B maximum-concurrent-flow
// instance from demands and idle executors.
func BuildLocalityNetwork(apps []AppDemand, idle []ExecInfo) *LocalityNetwork {
	return core.BuildLocalityNetwork(apps, idle)
}

// ---- Level 2: whole-cluster simulation ----

// ManagerName selects the cluster manager for a simulation.
type ManagerName string

// Available cluster managers.
const (
	ManagerCustody    ManagerName = "custody"
	ManagerStandalone ManagerName = "spark"
	ManagerOffer      ManagerName = "offer"
	ManagerYARN       ManagerName = "yarn"
)

// Config is a simulation configuration. Zero fields default to the paper's
// testbed (100 nodes, 2 executors × 4 slots per node, 128 MB blocks ×3
// replicas, delay scheduling with 3 s wait).
type Config struct {
	Nodes            int
	ExecutorsPerNode int
	SlotsPerExecutor int
	Seed             uint64
	Manager          ManagerName
	// Scheduler selects the per-application task scheduler: "delay"
	// (default), "delay-taskset", "fifo", "locality-hard", or "quincy".
	Scheduler       string
	LocalityWaitSec float64
	Speculation     bool
	// Trace records the execution timeline; retrieve it from Result.Trace.
	Trace bool
	// Obsv attaches a decision-provenance hub (see NewObservability): the
	// Custody manager's allocator reports every Algorithm 1 pick and grant
	// into it, and the driver feeds it audit results and fault no-ops.
	Obsv *Observability
	// CacheMB attaches a per-node in-memory block cache of this many
	// megabytes: warm reads stream at memory bandwidth, hits/misses/
	// evictions are collected, and grants on warm nodes are tagged
	// cache-hit. 0 (default) disables the tier — the read path is then
	// byte-identical to the cacheless simulation.
	CacheMB int64
	// CachePolicy selects the cache's eviction policy: "lru" (default) or
	// "2q".
	CachePolicy string
	// Policy selects the Custody manager's allocation policy (DESIGN.md
	// §16): "custody" (default, Algorithms 1+2), "quincy" (global min-cost
	// flow), "wfair" (per-server weighted fair), or "locmatch"
	// (Hopcroft-Karp + Hungarian locality matching). "" or "custody" keeps
	// the built-in path byte-identical to previous releases. Custody
	// manager only.
	Policy string
}

// TotalSlots returns the run's total task-slot capacity — nodes ×
// executors per node × slots per executor after defaults are applied — the
// denominator of TraceRecorder.Utilization.
func (c Config) TotalSlots() int {
	dcfg := c.shape()
	return dcfg.Nodes * dcfg.ExecutorsPerNode * dcfg.SlotsPerExecutor
}

// Workload describes a generated workload, mirroring §VI-A2.
type Workload struct {
	Kind             string // "WordCount", "Sort", or "PageRank"
	Apps             int    // default 4
	JobsPerApp       int    // default 30
	MeanInterarrival float64
	Seed             uint64
}

// TraceRecorder is an execution-timeline recorder (see Config.Trace); it
// exports to CSV or JSON Lines.
type TraceRecorder = trace.Recorder

// Result carries a finished run's metrics.
type Result struct {
	// Collector holds the raw per-task and per-job records.
	Collector *metrics.Collector
	// Trace is the execution timeline when Config.Trace was set.
	Trace *TraceRecorder
}

// MeanLocality is the average fraction of local input tasks per job.
func (r *Result) MeanLocality() float64 {
	return metrics.Summarize(r.Collector.LocalityPerJob()).Mean
}

// MeanJCT is the average job completion time in seconds.
func (r *Result) MeanJCT() float64 {
	return metrics.Summarize(r.Collector.JobCompletionTimes()).Mean
}

// MeanInputStageSec is the average input (map) stage completion time.
func (r *Result) MeanInputStageSec() float64 {
	return metrics.Summarize(r.Collector.InputStageTimes()).Mean
}

// MeanSchedulerDelay is the average task scheduler delay in seconds.
func (r *Result) MeanSchedulerDelay() float64 {
	return metrics.Summarize(r.Collector.SchedulerDelays()).Mean
}

// PctLocalJobs is the fraction of jobs with perfect locality.
func (r *Result) PctLocalJobs() float64 { return r.Collector.PctLocalJobs() }

// Jobs returns the number of completed jobs.
func (r *Result) Jobs() int { return len(r.Collector.Jobs) }

// shape applies the Config's cluster shape and scheduling knobs to the
// driver defaults.
func (c Config) shape() driver.Config {
	cfg := driver.DefaultConfig()
	if c.Nodes > 0 {
		cfg.Nodes = c.Nodes
		cfg.RackSize = c.Nodes / 5
		if cfg.RackSize < 1 {
			cfg.RackSize = 1
		}
	}
	if c.ExecutorsPerNode > 0 {
		cfg.ExecutorsPerNode = c.ExecutorsPerNode
	}
	if c.SlotsPerExecutor > 0 {
		cfg.SlotsPerExecutor = c.SlotsPerExecutor
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if c.LocalityWaitSec > 0 {
		cfg.LocalityWait = c.LocalityWaitSec
	}
	if c.Scheduler != "" {
		cfg.Scheduler = driver.SchedulerKind(c.Scheduler)
	}
	cfg.Speculation = c.Speculation
	return cfg
}

// validate rejects every name the Config does not know, naming the field
// and its valid values. An empty name selects the default.
func (c Config) validate() error {
	return errors.Join(
		checkName("Config.Manager", experiments.ManagerKind(c.Manager), experiments.ManagerKinds()),
		checkName("Config.Policy", c.Policy, policy.Names()),
		checkName("Config.Scheduler", driver.SchedulerKind(c.Scheduler), driver.SchedulerKinds()),
		checkName("Config.CachePolicy", hdfs.CachePolicy(c.CachePolicy), []hdfs.CachePolicy{hdfs.CacheLRU, hdfs.Cache2Q}),
	)
}

// checkName returns an error unless name is empty or one of valid.
func checkName[K ~string](field string, name K, valid []K) error {
	if name == "" || slices.Contains(valid, name) {
		return nil
	}
	names := make([]string, len(valid))
	for i, v := range valid {
		names[i] = string(v)
	}
	return fmt.Errorf("custody: unknown %s %q (valid: %s)", field, name, strings.Join(names, " | "))
}

// driverConfig builds the run's driver configuration, or the error that
// validate reports.
func (c Config) driverConfig() (driver.Config, error) {
	if err := c.validate(); err != nil {
		return driver.Config{}, err
	}
	cfg := c.shape()
	kind := experiments.ManagerKind(c.Manager)
	if kind == "" {
		kind = experiments.Custody
	}
	cfg.Manager = experiments.NewManager(kind, cfg.Seed)
	// Allocation decisions exist only under the Custody manager (the others
	// don't run Algorithms 1–2); audits and fault no-ops flow for every
	// manager.
	cfg.Obsv = c.Obsv
	if m, ok := cfg.Manager.(*manager.Custody); ok {
		if c.Obsv != nil {
			m.Opts.Observer = c.Obsv
		}
		if err := m.SetPolicy(c.Policy); err != nil {
			return driver.Config{}, err
		}
	}
	if c.CacheMB > 0 {
		cfg.EnableCache(c.CacheMB<<20, hdfs.CachePolicy(c.CachePolicy))
	}
	return cfg, nil
}

// mustDriverConfig is driverConfig for the constructors that, like
// driver.New, panic on an invalid configuration.
func (c Config) mustDriverConfig() driver.Config {
	cfg, err := c.driverConfig()
	if err != nil {
		panic(err)
	}
	return cfg
}

func (w Workload) spec() workload.Spec {
	kind := workload.Kind(w.Kind)
	if kind == "" {
		kind = workload.WordCount
	}
	spec := workload.DefaultSpec(kind)
	if w.Apps > 0 {
		spec.Apps = w.Apps
	}
	if w.JobsPerApp > 0 {
		spec.JobsPerApp = w.JobsPerApp
	}
	if w.MeanInterarrival > 0 {
		spec.MeanInterarrival = w.MeanInterarrival
	}
	return spec
}

// Run generates the workload schedule and executes it on a simulated
// cluster under the configured manager. An unknown name in cfg or w is an
// error naming the field and its valid values.
func Run(cfg Config, w Workload) (*Result, error) {
	dcfg, err := cfg.driverConfig()
	if err == nil {
		err = checkName("Workload.Kind", workload.Kind(w.Kind), workload.Kinds())
	}
	if err != nil {
		return nil, err
	}
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	sched := workload.Generate(w.spec(), xrand.New(seed))
	var rec *trace.Recorder
	if cfg.Trace {
		rec = trace.NewRecorder()
		dcfg.Tracer = rec
	}
	col, err := driver.RunSchedule(dcfg, sched)
	if err != nil {
		return nil, err
	}
	return &Result{Collector: col, Trace: rec}, nil
}

// Compare runs the same workload under two managers and returns both
// results — the paper's methodology (same schedule, different manager).
func Compare(cfg Config, w Workload, a, b ManagerName) (*Result, *Result, error) {
	ca, cb := cfg, cfg
	ca.Manager, cb.Manager = a, b
	ra, err := Run(ca, w)
	if err != nil {
		return nil, nil, err
	}
	rb, err := Run(cb, w)
	if err != nil {
		return nil, nil, err
	}
	return ra, rb, nil
}

// ---- Observability & decision provenance (internal/obsv) ----

// Observability is a decision-provenance hub (DESIGN.md §11): a fixed-size
// flight recorder of every Algorithm 1 pick and executor grant, plus
// streaming sinks (JSONL, CSV, OpenMetrics). Attach one via Config.Obsv;
// after the run, Explain on its Flight recorder reconstructs the exact
// fairness-key comparison behind each grant of a job.
type Observability = obsv.Hub

// ObservedDecision is one recorded Algorithm 1 pick.
type ObservedDecision = obsv.Decision

// ObservedGrant is one recorded executor-slot grant.
type ObservedGrant = obsv.Grant

// NewObservability returns a hub whose flight recorder retains the last
// decisionCap decisions (and 4× as many grants); pass 0 for the defaults.
func NewObservability(decisionCap int) *Observability { return obsv.NewHub(decisionCap) }

// ---- Level 3: paper reproduction ----

// FigureOptions configures the paper sweep.
type FigureOptions = experiments.Options

// Figures runs the full evaluation grid (Figures 7–10). Quick mode shrinks
// the workload for fast exploration.
func Figures(opts FigureOptions) (*experiments.Sweep, error) {
	return experiments.RunSweep(experiments.PaperSizes,
		[]workload.Kind{workload.WordCount, workload.Sort, workload.PageRank},
		[]experiments.ManagerKind{experiments.Standalone, experiments.Custody}, opts)
}

// SimDriver exposes the underlying driver for advanced scenarios (custom
// DAGs, direct HDFS control). See examples/workloads for usage.
type SimDriver = driver.Driver

// NewSimulation builds a bare simulation driver from a Config. The caller
// creates inputs (CreateInput), registers applications (RegisterApp),
// submits jobs (SubmitJobAt) and calls Run. The driver also exposes
// FailNodeAt / RecoverNodeAt for failure injection. It panics on an
// unknown name in cfg, with the error Run would return.
func NewSimulation(cfg Config) *SimDriver {
	return driver.New(cfg.mustDriverConfig())
}

// NewSimulationTraced is NewSimulation with an execution-timeline recorder
// attached.
func NewSimulationTraced(cfg Config, rec *TraceRecorder) *SimDriver {
	dcfg := cfg.mustDriverConfig()
	dcfg.Tracer = rec
	return driver.New(dcfg)
}

// BuildJob constructs one job DAG of the named workload kind over a file
// previously created with SimDriver.CreateInput.
func BuildJob(kind string, id int, f *hdfs.File) *app.Job {
	return workload.BuildJob(workload.Kind(kind), id, f)
}
