// Package driver wires the substrates — event engine, network fabric, HDFS,
// cluster, task schedulers, and a cluster manager — into a runnable
// simulation and collects the paper's metrics.
package driver

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/obsv"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// SchedulerKind selects the per-application task scheduler.
type SchedulerKind string

// Scheduler kinds.
const (
	SchedDelay        SchedulerKind = "delay"
	SchedDelayTaskSet SchedulerKind = "delay-taskset"
	SchedFIFO         SchedulerKind = "fifo"
	SchedLocalityHard SchedulerKind = "locality-hard"
	SchedQuincy       SchedulerKind = "quincy"
)

// Config describes one simulation run. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Seed uint64

	// Cluster shape (§VI-A1).
	Nodes            int
	ExecutorsPerNode int
	SlotsPerExecutor int
	RackSize         int

	// Storage.
	BlockSize   int64
	Replication int
	Placement   hdfs.PlacementPolicy // nil → random
	// ReplicaSelection picks the source of non-local reads (nil → random).
	ReplicaSelection hdfs.ReplicaSelector

	// Network and disk capacities.
	Net netsim.Config

	// Task scheduling.
	Scheduler    SchedulerKind
	LocalityWait float64

	// Manager is the cluster manager under test.
	Manager manager.Manager

	// MaxFanIn bounds the number of concurrent fetch flows per shuffle
	// task; sources are bundled beyond it.
	MaxFanIn int

	// RemoteReadCapBps caps a single remote HDFS block read (protocol
	// overhead keeps single-stream reads well below line rate; the paper
	// cites remote reads as "as much as 20 times slower than local data
	// access"). Zero disables the cap.
	RemoteReadCapBps float64

	// ExecutorStartupSec is charged when an executor changes owner
	// (container/JVM start). Zero disables the charge.
	ExecutorStartupSec float64

	// ComputeNoise is the half-width of the multiplicative jitter applied
	// to task compute times (0.1 → uniform in [0.9, 1.1]).
	ComputeNoise float64

	// SlowNodeFraction / SlowFactor make a deterministic share of nodes
	// run slower (compute and disk), producing persistent stragglers —
	// heterogeneity the paper's testbed did not have but real clusters do.
	SlowNodeFraction float64
	SlowFactor       float64

	// StragglerProb makes a task a straggler with this probability,
	// multiplying its compute time by StragglerFactor — the heavy tail
	// that speculative execution (§IV-B's mitigation hook) targets.
	StragglerProb   float64
	StragglerFactor float64

	// Resilience knobs (chaos layer). All default to zero, which reproduces
	// the pre-resilience behavior exactly: immediate re-queue, no backoff,
	// no blacklisting, instant connect failure. EnableResilience sets
	// Spark-like values.

	// MaxTaskRetries caps the exponential-backoff growth of retry delays:
	// the delay is RetryBackoffSec × 2^min(failures−1, MaxTaskRetries).
	// Retries beyond the cap continue at the maximum delay — abandoning a
	// task would break the simulator's jobs-complete contract; runaway
	// retries surface in the TaskRetries metric instead.
	MaxTaskRetries int
	// RetryBackoffSec is the base delay before re-queuing a failed task
	// attempt. Zero re-queues immediately.
	RetryBackoffSec float64
	// BlacklistThreshold excludes a node from scheduling after this many
	// task failures within BlacklistWindowSec (Spark excludeOnFailure).
	// Zero disables blacklisting.
	BlacklistThreshold int
	// BlacklistWindowSec is both the sliding window for counting failures
	// and the duration of the exclusion.
	BlacklistWindowSec float64
	// ConnectTimeoutSec is charged when a task attempt tries to read from
	// an unreachable replica source before the attempt fails.
	ConnectTimeoutSec float64
	// PartitionBps is the leak capacity of a network partition's choke
	// (InjectPartition). Zero picks a 1 Mbps trickle.
	PartitionBps float64

	// Block-cache tier knobs (zero-default, like the resilience knobs: all
	// zero reproduces the cacheless read path byte-for-byte).

	// CacheBytes attaches an in-memory block cache of this byte capacity to
	// every DataNode. Warm reads stream at the memory tier's bandwidth
	// (Net.MemoryBps) instead of disk; hits, misses, and evictions land in
	// the collector and grants on warm nodes are tagged cache-hit in obsv.
	// Zero disables the tier entirely.
	CacheBytes int64
	// CachePolicy selects the eviction policy: hdfs.CacheLRU (default when
	// empty) or hdfs.Cache2Q.
	CachePolicy hdfs.CachePolicy

	// Tracer receives timeline events (nil → discarded).
	Tracer trace.Tracer

	// Obsv receives decision provenance and invariant taps (nil → none).
	// The driver wires the hub's clock to simulated time and feeds it
	// Audit results and chaos fault no-ops; pass the same hub as the
	// manager's core Observer to capture allocation decisions too.
	Obsv *obsv.Hub

	// Speculation enables straggler re-execution (§IV-B mentions straggler
	// mitigation schemes as complementary).
	Speculation bool
	// SpeculationMultiplier: a running task is re-launched when it exceeds
	// this multiple of the stage's median completed duration.
	SpeculationMultiplier float64
	// SpeculationQuantile: fraction of the stage that must be complete
	// before speculation may trigger.
	SpeculationQuantile float64
}

// DefaultConfig mirrors the paper's testbed (§VI-A1): 100 nodes, 8 cores
// and 16 GB each, two executors per node, 128 MB blocks with 3 replicas,
// 2 Gbps uplink / 40 Gbps downlink, delay scheduling with a 3 s wait.
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		Nodes:                 100,
		ExecutorsPerNode:      2,
		SlotsPerExecutor:      4,
		RackSize:              20,
		BlockSize:             hdfs.DefaultBlockSize,
		Replication:           hdfs.DefaultReplication,
		Net:                   netsim.LinodeConfig(),
		Scheduler:             SchedDelay,
		LocalityWait:          scheduler.DefaultWait,
		MaxFanIn:              8,
		RemoteReadCapBps:      75e6,
		ExecutorStartupSec:    0.5,
		ComputeNoise:          0.1,
		SpeculationMultiplier: 1.5,
		SpeculationQuantile:   0.5,
	}
}

// EnableResilience turns on the chaos-hardening defaults: bounded retry
// backoff, failure blacklisting, and connect timeouts. Chaos experiments and
// tests call this; the plain paper reproduction leaves everything off.
func (c *Config) EnableResilience() {
	c.MaxTaskRetries = 4
	c.RetryBackoffSec = 0.5
	c.BlacklistThreshold = 3
	c.BlacklistWindowSec = 30
	c.ConnectTimeoutSec = 1
}

// EnableCache turns on the block-cache tier with the given per-node byte
// capacity and eviction policy (empty policy → LRU).
func (c *Config) EnableCache(bytes int64, policy hdfs.CachePolicy) {
	c.CacheBytes = bytes
	c.CachePolicy = policy
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("driver: Nodes = %d", c.Nodes)
	}
	if c.ExecutorsPerNode <= 0 {
		return fmt.Errorf("driver: ExecutorsPerNode = %d", c.ExecutorsPerNode)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("driver: BlockSize = %d", c.BlockSize)
	}
	if c.Replication <= 0 {
		return fmt.Errorf("driver: Replication = %d", c.Replication)
	}
	if c.Manager == nil {
		return fmt.Errorf("driver: Manager is nil")
	}
	if c.Net.UplinkBps <= 0 || c.Net.DownlinkBps <= 0 || c.Net.DiskBps <= 0 {
		return fmt.Errorf("driver: non-positive capacity in Net config")
	}
	switch c.Scheduler {
	case SchedDelay, SchedDelayTaskSet, SchedFIFO, SchedLocalityHard, SchedQuincy:
	default:
		return fmt.Errorf("driver: unknown scheduler %q", c.Scheduler)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("driver: CacheBytes = %d", c.CacheBytes)
	}
	if !hdfs.ValidCachePolicy(c.CachePolicy) {
		return fmt.Errorf("driver: unknown cache policy %q", c.CachePolicy)
	}
	return nil
}

// clusterConfig derives the cluster substrate configuration.
func (c Config) clusterConfig() cluster.Config {
	return cluster.Config{
		Nodes:            c.Nodes,
		ExecutorsPerNode: c.ExecutorsPerNode,
		SlotsPerExecutor: c.SlotsPerExecutor,
		RackSize:         c.RackSize,
		Spec:             cluster.LinodeSpec(),
		SlowNodeFraction: c.SlowNodeFraction,
		SlowFactor:       c.SlowFactor,
	}
}
