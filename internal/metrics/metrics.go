// Package metrics collects per-task and per-job records during a simulation
// and aggregates them into the statistics the paper reports: percentage of
// local input tasks (Fig. 7), job completion times (Fig. 8), input-stage
// completion times (Fig. 9), and scheduler delay (Fig. 10).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// TaskRecord captures one finished task.
type TaskRecord struct {
	App, Job, Stage, Index int
	Workload               string
	Input                  bool // true for input (map) tasks reading HDFS blocks
	Local                  bool // input was read from the local node
	SchedulerDelay         float64
	ReadSec                float64
	Duration               float64 // launch → finish
	Speculative            bool
}

// JobRecord captures one finished job.
type JobRecord struct {
	App, Job      int
	Workload      string
	Submit        float64
	Finish        float64
	InputStageSec float64
	LocalInput    int
	TotalInput    int
}

// CompletionSec returns the job's completion time.
func (j JobRecord) CompletionSec() float64 { return j.Finish - j.Submit }

// PctLocal returns the fraction of the job's input tasks that were local.
func (j JobRecord) PctLocal() float64 {
	if j.TotalInput == 0 {
		return 1
	}
	return float64(j.LocalInput) / float64(j.TotalInput)
}

// Perfect reports whether the job achieved perfect locality (a "local job").
func (j JobRecord) Perfect() bool { return j.LocalInput == j.TotalInput }

// Collector accumulates records.
type Collector struct {
	Tasks []TaskRecord
	Jobs  []JobRecord

	// OfferRejections counts data-locality offer rejections (Mesos-like
	// manager ablation, §II-A).
	OfferRejections int
	// Reallocation counts manager allocation rounds.
	Reallocations int
	// ExecutorMigrations counts executor ownership changes.
	ExecutorMigrations int

	// TaskRetries counts task attempts re-queued after a failure (chaos
	// resilience layer).
	TaskRetries int
	// AttemptFailures counts task attempts killed by faults (node/executor
	// crashes, unreachable replica sources).
	AttemptFailures int
	// BlacklistEvents counts nodes excluded from scheduling after repeated
	// failures (Spark excludeOnFailure-style).
	BlacklistEvents int
	// ReplicationStalls counts Decommission calls that could not plan
	// re-replication (error surfaced instead of dropped).
	ReplicationStalls int
	// ReplicasRestored counts re-replication transfers that completed and
	// re-registered a replica with the NameNode.
	ReplicasRestored int
	// RecoverySec records, per fault-interrupted task, the wall-clock
	// seconds from the fault until the task was re-launched.
	RecoverySec []float64

	// CacheHits/CacheMisses/CacheEvictions aggregate the block-cache tier
	// across nodes; CacheByNode carries the per-node breakdown. All zero
	// (and CacheByNode nil) when the cache is disabled — the default.
	CacheHits      int
	CacheMisses    int
	CacheEvictions int
	CacheByNode    map[int]*CacheCounts
}

// CacheCounts is one node's block-cache accounting.
type CacheCounts struct {
	Hits, Misses, Evictions int
}

// NodeCache returns the cache accounting for a node, allocating it on first
// use.
func (c *Collector) NodeCache(node int) *CacheCounts {
	if c.CacheByNode == nil {
		c.CacheByNode = make(map[int]*CacheCounts)
	}
	nc := c.CacheByNode[node]
	if nc == nil {
		nc = &CacheCounts{}
		c.CacheByNode[node] = nc
	}
	return nc
}

// CacheHitRatio returns hits / (hits + misses), or 0 with no lookups.
func (c *Collector) CacheHitRatio() float64 {
	total := c.CacheHits + c.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(total)
}

// MeanRecoverySec returns the mean fault-recovery time, or 0 with no faults.
func (c *Collector) MeanRecoverySec() float64 {
	if len(c.RecoverySec) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range c.RecoverySec {
		sum += x
	}
	return sum / float64(len(c.RecoverySec))
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// AddTask records a finished task.
func (c *Collector) AddTask(r TaskRecord) { c.Tasks = append(c.Tasks, r) }

// AddJob records a finished job.
func (c *Collector) AddJob(r JobRecord) { c.Jobs = append(c.Jobs, r) }

// Summary aggregates a scalar series.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max, Median float64
	P95              float64
}

// Summarize computes summary statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	varsum := 0.0
	for _, x := range sorted {
		d := x - s.Mean
		varsum += d * d
	}
	s.Std = math.Sqrt(varsum / float64(s.N))
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	s.Median = Percentile(sorted, 0.5)
	s.P95 = Percentile(sorted, 0.95)
	return s
}

// Percentile returns the p-quantile (0..1) of an ascending-sorted slice
// using linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f med=%.3f p95=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P95, s.Max)
}

// LocalityPerJob returns each job's fraction of local input tasks — the
// quantity plotted in Fig. 7 (mean and std over jobs).
func (c *Collector) LocalityPerJob() []float64 {
	out := make([]float64, 0, len(c.Jobs))
	for _, j := range c.Jobs {
		if j.TotalInput == 0 {
			continue
		}
		out = append(out, j.PctLocal())
	}
	return out
}

// JobCompletionTimes returns every job's completion time (Fig. 8).
func (c *Collector) JobCompletionTimes() []float64 {
	out := make([]float64, 0, len(c.Jobs))
	for _, j := range c.Jobs {
		out = append(out, j.CompletionSec())
	}
	return out
}

// InputStageTimes returns every job's input (map) stage completion time
// (Fig. 9).
func (c *Collector) InputStageTimes() []float64 {
	out := make([]float64, 0, len(c.Jobs))
	for _, j := range c.Jobs {
		out = append(out, j.InputStageSec)
	}
	return out
}

// SchedulerDelays returns every task's scheduler delay (Fig. 10).
func (c *Collector) SchedulerDelays() []float64 {
	out := make([]float64, 0, len(c.Tasks))
	for _, t := range c.Tasks {
		out = append(out, t.SchedulerDelay)
	}
	return out
}

// PctLocalJobs returns the fraction of jobs with perfect input locality —
// Custody's inter-application fairness metric (Algorithm 1).
func (c *Collector) PctLocalJobs() float64 {
	if len(c.Jobs) == 0 {
		return 1
	}
	local := 0
	for _, j := range c.Jobs {
		if j.Perfect() {
			local++
		}
	}
	return float64(local) / float64(len(c.Jobs))
}

// PctLocalTasks returns the overall fraction of local input tasks.
func (c *Collector) PctLocalTasks() float64 {
	total, local := 0, 0
	for _, t := range c.Tasks {
		if !t.Input {
			continue
		}
		total++
		if t.Local {
			local++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(local) / float64(total)
}

// PerApp returns per-application collectors, keyed by app id.
func (c *Collector) PerApp() map[int]*Collector {
	out := map[int]*Collector{}
	get := func(app int) *Collector {
		if out[app] == nil {
			out[app] = NewCollector()
		}
		return out[app]
	}
	for _, t := range c.Tasks {
		get(t.App).AddTask(t)
	}
	for _, j := range c.Jobs {
		get(j.App).AddJob(j)
	}
	return out
}

// PerWorkload splits records by workload name.
func (c *Collector) PerWorkload() map[string]*Collector {
	out := map[string]*Collector{}
	get := func(w string) *Collector {
		if out[w] == nil {
			out[w] = NewCollector()
		}
		return out[w]
	}
	for _, t := range c.Tasks {
		get(t.Workload).AddTask(t)
	}
	for _, j := range c.Jobs {
		get(j.Workload).AddJob(j)
	}
	return out
}

// MinAppLocality returns the minimum over applications of the fraction of
// local jobs — the objective of Eq. (6).
func (c *Collector) MinAppLocality() float64 {
	per := c.PerApp()
	minv := 1.0
	for _, cc := range per {
		if v := cc.PctLocalJobs(); v < minv {
			minv = v
		}
	}
	return minv
}

// JainFairness computes Jain's fairness index over per-application local-job
// percentages (1 = perfectly even).
func (c *Collector) JainFairness() float64 {
	per := c.PerApp()
	if len(per) == 0 {
		return 1
	}
	var sum, sumsq float64
	n := 0
	for _, cc := range per {
		v := cc.PctLocalJobs()
		sum += v
		sumsq += v * v
		n++
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumsq)
}
