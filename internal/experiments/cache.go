package experiments

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// CacheRow is one (cache size, eviction policy, manager) cell of the
// block-cache ablation.
type CacheRow struct {
	CacheMB   int64 // per-node cache capacity; 0 = tier disabled
	Policy    string
	Manager   ManagerKind
	JCT       float64
	Locality  float64
	HitRatio  float64
	Hits      int
	Misses    int
	Evictions int
}

// CacheResult is ablation A14: the A-series JCT/locality outcomes re-run
// across per-node block-cache sizes × managers, asking where an in-memory
// tier erases — or amplifies — Custody's locality advantage over the
// Standalone and Offer baselines. Rows with a cache attach the cache-aware
// replica selector, the read path a cache-equipped deployment would run.
type CacheResult struct{ Rows []CacheRow }

// cacheSizesMB are the swept per-node capacities. Zero is the cacheless
// A-series baseline; with 128 MB blocks the nonzero sizes hold 2, 8, and
// 32 blocks per node.
var cacheSizesMB = []int64{0, 256, 1024, 4096}

// RunCache sweeps cache sizes × managers (LRU everywhere, plus 2Q at the
// smallest nonzero size, where eviction pressure makes the policy choice
// visible).
func RunCache(opts Options) (CacheResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.WordCount))
	var out CacheResult
	for _, mb := range cacheSizesMB {
		policies := []hdfs.CachePolicy{hdfs.CacheLRU}
		if mb == 256 {
			policies = append(policies, hdfs.Cache2Q)
		}
		if mb == 0 {
			policies = []hdfs.CachePolicy{""}
		}
		for _, pol := range policies {
			for _, mk := range []ManagerKind{Standalone, Custody, Offer} {
				cfg := opts.config(NewManager(mk, opts.Seed))
				polName := "-"
				if mb > 0 {
					cfg.EnableCache(mb<<20, pol)
					cfg.ReplicaSelection = &hdfs.CacheAwareSelector{}
					polName = string(pol)
				}
				col, err := driver.RunSchedule(cfg, sched)
				if err != nil {
					return out, err
				}
				out.Rows = append(out.Rows, CacheRow{
					CacheMB:   mb,
					Policy:    polName,
					Manager:   mk,
					JCT:       metrics.Summarize(col.JobCompletionTimes()).Mean,
					Locality:  metrics.Summarize(col.LocalityPerJob()).Mean,
					HitRatio:  col.CacheHitRatio(),
					Hits:      col.CacheHits,
					Misses:    col.CacheMisses,
					Evictions: col.CacheEvictions,
				})
			}
		}
	}
	return out, nil
}

// Render formats the cache ablation.
func (r CacheResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A14 — per-node block cache & tiered reads (WordCount, 100 nodes; cached rows use the cache-aware selector)\n")
	fmt.Fprintf(&b, "%-8s %-7s %-10s %12s %10s %9s %9s %9s %10s\n",
		"cacheMB", "policy", "manager", "meanJCT(s)", "locality", "hitRatio", "hits", "misses", "evictions")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %-7s %-10s %11.2f %9.3f %8.3f %9d %9d %10d\n",
			row.CacheMB, row.Policy, row.Manager, row.JCT, row.Locality,
			row.HitRatio, row.Hits, row.Misses, row.Evictions)
	}
	return b.String()
}
