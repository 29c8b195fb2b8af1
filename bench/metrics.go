// Package bench is the repository benchmark. It runs five workloads through
// the public functions of the simulator, the allocator and the allocation
// service, times them from outside the program, checks their outputs, and
// reports end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs). Workload and metric declarations here are the source of truth that
// BENCHMARK.json mirrors; TestBenchmarkJSONMatches keeps the two in step.
package bench

// Workload names one benchmark workload and records why it was chosen.
type Workload struct {
	Name string
	Why  string
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{"paper-grid", "The Fig. 7-10 sweep researchers wait on; the fluid network takes most CPU and the allocator barely registers"},
	{"chaos-grid", "The same layers driven by faults: flow cancels, link and disk scaling, partitions, retries and executor-fault repairs"},
	{"alloc-churn", "100k-node allocation rounds in which 1% of executors free up per round, the regime the service sees at scale"},
	{"alloc-burst", "100k-node allocation rounds with every executor idle, the regime the sharded session build was made for"},
	{"service-commit", "Durable WAL commits of submissions and rounds through the custodyd Service API, and restart by log replay"},
}

// Metric declares one reported metric. Bound applies to end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression. Moves and On name the end-to-end
// metric and the workload a layer metric is expected to move.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Moves  string
	On     string
}

// The end-to-end metrics, reported by every untraced run. What one unit of
// work is depends on the workload (see README.md): a simulated task or cell
// on the grids, an Allocate round on the alloc workloads, a commit on
// service-commit.
const (
	SetupS       = "setup_s"
	ThroughputPS = "throughput_per_s"
	LatencyP50   = "latency_ms_p50"
	LatencyP90   = "latency_ms_p90"
	LiveHeapMB   = "live_heap_mb"
)

// EndToEnd lists the end-to-end metrics with their bounds. Timings get the
// widest bound the benchmark file allows: even scaled to a reference host
// speed (speed.go), ten runs on the shared 2-core machines this runs on
// spread by 5–15% between their quartiles.
var EndToEnd = []Metric{
	{Name: SetupS, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: ThroughputPS, Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: LatencyP50, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: LatencyP90, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: LiveHeapMB, Unit: "MB", Better: "lower", Bound: 0.15},
}

// Layers lists the per-layer metrics of a traced run, named after the
// repository's modules. Every traced run reports all of them; a layer the
// workload does not exercise reads 0.
var Layers = []Metric{
	{Name: "netsim.flows_completed", Unit: "count", Better: "higher", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "netsim.gb_moved", Unit: "GB", Better: "higher", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "netsim.cpu_share", Unit: "share", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "netsim.reallocate_cum_share", Unit: "share", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "netsim.cpu_us_per_flow", Unit: "us", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "event.events_run", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "event.cpu_share", Unit: "share", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "driver.tasks_completed", Unit: "count", Better: "higher", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "driver.task_retries", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "driver.attempt_failures", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "driver.attempt_success_ratio", Unit: "ratio", Better: "higher", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "driver.cpu_share", Unit: "share", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "scheduler.cpu_share", Unit: "share", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "hdfs.cpu_share", Unit: "share", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "manager.calls", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "manager.busy_s", Unit: "s", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "manager.self_s", Unit: "s", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "manager.reallocations", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "manager.migrations", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "chaos-grid"},
	{Name: "core.rounds", Unit: "count", Better: "lower", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.busy_s", Unit: "s", Better: "lower", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.round_ms_p99", Unit: "ms", Better: "lower", Moves: LatencyP90, On: "alloc-churn"},
	{Name: "core.idle_offered", Unit: "count", Better: "lower", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.postings", Unit: "count", Better: "lower", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.grants", Unit: "count", Better: "higher", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.local_grant_ratio", Unit: "ratio", Better: "higher", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.cpu_share", Unit: "share", Better: "lower", Moves: LatencyP50, On: "alloc-burst"},
	{Name: "core.run_cum_share", Unit: "share", Better: "lower", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.build_apps_cum_share", Unit: "share", Better: "lower", Moves: LatencyP50, On: "alloc-churn"},
	{Name: "core.pool_reset_cum_share", Unit: "share", Better: "lower", Moves: LatencyP50, On: "alloc-burst"},
	{Name: "custodyd.wal_appends", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "service-commit"},
	{Name: "custodyd.wal_append_ms_p50", Unit: "ms", Better: "lower", Moves: LatencyP50, On: "service-commit"},
	{Name: "custodyd.wal_append_ms_p90", Unit: "ms", Better: "lower", Moves: LatencyP90, On: "service-commit"},
	{Name: "custodyd.wal_bytes_per_op", Unit: "B", Better: "lower", Moves: ThroughputPS, On: "service-commit"},
	{Name: "custodyd.apply_ms_p50", Unit: "ms", Better: "lower", Moves: LatencyP50, On: "service-commit"},
	{Name: "custodyd.submit_ms_p50", Unit: "ms", Better: "lower", Moves: ThroughputPS, On: "service-commit"},
	{Name: "custodyd.submit_ms_p90", Unit: "ms", Better: "lower", Moves: ThroughputPS, On: "service-commit"},
	{Name: "custodyd.submit_ms_p99", Unit: "ms", Better: "lower", Moves: ThroughputPS, On: "service-commit"},
	{Name: "custodyd.replay_parse_s", Unit: "s", Better: "lower", Moves: SetupS, On: "service-commit"},
	{Name: "custodyd.replay_apply_s", Unit: "s", Better: "lower", Moves: SetupS, On: "service-commit"},
	{Name: "custodyd.recovery_s", Unit: "s", Better: "lower", Moves: SetupS, On: "service-commit"},
	{Name: "custodyd.cpu_share", Unit: "share", Better: "lower", Moves: LatencyP50, On: "service-commit"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", Moves: LiveHeapMB, On: "paper-grid"},
	{Name: "bench.latency_ms_p99", Unit: "ms", Better: "lower", Moves: LatencyP90, On: "service-commit"},
	{Name: "bench.latency_samples", Unit: "count", Better: "higher", Moves: LatencyP90, On: "alloc-churn"},
	{Name: "bench.reference_loop_ms", Unit: "ms", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: ThroughputPS, On: "paper-grid"},
}

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// Digest fingerprints the workload's outputs (FNV-1a): per-cell job
	// locality and completion times on the grids, every plan on the alloc
	// workloads, the service's final state digest on service-commit. The same
	// seed must give the same digest on every commit that keeps behaviour.
	Digest   string   `json:"output_digest"`
	Problems []string `json:"problems,omitempty"`
}

// Line is the result as the last line of standard output carries it.
func (r *Result) Line() any {
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// metricDecl finds a declared metric by name in either table.
func metricDecl(name string) (Metric, bool) {
	for _, tab := range [][]Metric{EndToEnd, Layers} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
