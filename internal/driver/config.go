// Package driver wires the substrates — event engine, network fabric, HDFS,
// cluster, task schedulers, and a cluster manager — into a runnable
// simulation and collects the paper's metrics.
package driver

import (
	"fmt"
	"slices"

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

// SchedulerKinds lists every scheduler kind Validate accepts.
func SchedulerKinds() []SchedulerKind {
	return []SchedulerKind{SchedDelay, SchedDelayTaskSet, SchedFIFO, SchedLocalityHard, SchedQuincy}
}

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

	// ExecutorStartupSec is charged when an executor changes owner
	// (container/JVM start). Zero disables the charge.
	ExecutorStartupSec float64

	// ComputeNoise is the half-width of the multiplicative jitter applied
	// to task compute times (0.1 → uniform in [0.9, 1.1]).
	ComputeNoise float64

	// SlowNodeFraction makes a deterministic share of nodes run 3× slower
	// (compute and disk), producing persistent stragglers — heterogeneity
	// the paper's testbed did not have but real clusters do.
	SlowNodeFraction float64

	// StragglerProb makes a task a straggler with this probability,
	// multiplying its compute time by stragglerFactor — the heavy tail
	// that speculative execution (§IV-B's mitigation hook) targets.
	StragglerProb float64

	// resilient turns on the chaos-hardening constants (resilience.go):
	// retry backoff, failure blacklisting and connect timeouts. Off, a
	// failed attempt re-queues immediately, no node is ever excluded and a
	// connect failure is instant — the plain paper reproduction. Only
	// EnableResilience sets it.
	resilient bool

	// Block-cache tier knobs (zero-default: all zero reproduces the
	// cacheless read path byte-for-byte).

	// CacheBytes attaches an in-memory block cache of this byte capacity to
	// every DataNode. Warm reads stream at the memory tier's bandwidth
	// (netsim.DefaultMemoryBps) instead of disk; hits, misses, and
	// evictions land in the collector and grants on warm nodes are tagged
	// cache-hit in obsv. Zero disables the tier entirely.
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
}

// DefaultConfig mirrors the paper's testbed (§VI-A1): 100 nodes, 8 cores
// and 16 GB each, two executors per node, 128 MB blocks with 3 replicas,
// 2 Gbps uplink / 40 Gbps downlink, delay scheduling with a 3 s wait.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Nodes:              100,
		ExecutorsPerNode:   2,
		SlotsPerExecutor:   4,
		RackSize:           20,
		BlockSize:          hdfs.DefaultBlockSize,
		Replication:        hdfs.DefaultReplication,
		Net:                netsim.LinodeConfig(),
		Scheduler:          SchedDelay,
		LocalityWait:       scheduler.DefaultWait,
		ExecutorStartupSec: 0.5,
		ComputeNoise:       0.1,
	}
}

// EnableResilience turns on the chaos-hardening constants: bounded retry
// backoff, failure blacklisting, and connect timeouts. Chaos experiments and
// tests call this; the plain paper reproduction leaves everything off.
func (c *Config) EnableResilience() { c.resilient = true }

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
	if !slices.Contains(SchedulerKinds(), c.Scheduler) {
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
		SlowNodeFraction: c.SlowNodeFraction,
	}
}
