package chaos

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// cachedChaosDriver is chaosDriver with the block-cache tier enabled: a
// per-node cache, the cache-aware replica selector, and a capacity small
// enough that eviction pressure is real.
func cachedChaosDriver(t *testing.T, seed uint64, tr trace.Tracer) (*driver.Driver, int) {
	t.Helper()
	jobsPerApp := 3
	if race.Enabled {
		jobsPerApp = 2
	}
	cfg := driver.DefaultConfig()
	cfg.Seed = seed
	cfg.Nodes = 8
	cfg.RackSize = 4
	cfg.BlockSize = 64 << 20
	cfg.Net = netsim.Config{UplinkBps: 250e6, DownlinkBps: 5e9, DiskBps: 400e6}
	cfg.Manager = manager.NewCustody()
	cfg.ExecutorStartupSec = 0
	cfg.ComputeNoise = 0
	cfg.EnableResilience()
	cfg.EnableCache(128<<20, hdfs.Cache2Q) // two 64MB blocks per node
	cfg.ReplicaSelection = &hdfs.CacheAwareSelector{}
	cfg.Tracer = tr
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: jobsPerApp, MeanInterarrival: 3, DatasetFiles: 2}
	sched := workload.Generate(spec, xrand.New(seed))
	d, err := driver.NewScheduled(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	return d, len(sched.Subs)
}

func runCachedChaos(t *testing.T, seed uint64) (*Report, *metrics.Collector, int, int) {
	t.Helper()
	d, jobs := cachedChaosDriver(t, seed, nil)
	rng := xrand.New(seed).Fork("chaos-plan")
	plan := Plan(DefaultProfile(), 40, 8, 16, rng)
	rep := Inject(d, plan, true)
	col := d.Run()
	if err := d.Audit(); err != nil {
		t.Errorf("final audit: %v", err)
	}
	return rep, col, jobs, len(col.Jobs)
}

// Property: with the cache tier on, every fault application and reversal
// leaves the cache invariants intact — bytes within capacity, every cached
// block held by its node, failed nodes cold — because Inject audits after
// each fault and Driver.Audit checks the cache section.
func TestChaosCacheInvariants(t *testing.T) {
	rep, col, submitted, done := runCachedChaos(t, 11)
	if !rep.Ok() {
		t.Errorf("audit violations with cache enabled:\n%v", rep.Violations)
	}
	if rep.AuditRuns == 0 {
		t.Error("auditor never ran")
	}
	if done != submitted {
		t.Errorf("%d of %d jobs completed under chaos with cache on", done, submitted)
	}
	// The run must actually exercise the cache: lookups happen, and the
	// node-flap windows must not be able to fake that by zeroing counters.
	if col.CacheHits+col.CacheMisses == 0 {
		t.Error("cache never consulted during a cached chaos run")
	}
}

// Property: the cache tier keeps chaos runs deterministic — same seed, same
// hit/miss/eviction counters, same completions.
func TestChaosCacheDeterministic(t *testing.T) {
	_, col1, _, done1 := runCachedChaos(t, 11)
	_, col2, _, done2 := runCachedChaos(t, 11)
	if done1 != done2 {
		t.Fatalf("completions differ across same-seed cached runs: %d vs %d", done1, done2)
	}
	if col1.CacheHits != col2.CacheHits || col1.CacheMisses != col2.CacheMisses ||
		col1.CacheEvictions != col2.CacheEvictions {
		t.Fatalf("cache counters differ across same-seed runs: %d/%d/%d vs %d/%d/%d",
			col1.CacheHits, col1.CacheMisses, col1.CacheEvictions,
			col2.CacheHits, col2.CacheMisses, col2.CacheEvictions)
	}
	for node, c1 := range col1.CacheByNode {
		c2 := col2.CacheByNode[node]
		if c2 == nil || *c1 != *c2 {
			t.Fatalf("per-node cache counters differ at node %d: %+v vs %+v", node, c1, c2)
		}
	}
}
