// Package benchreg is the benchmark-regression harness: it runs the
// performance-critical paths under testing.Benchmark, records ns/op,
// allocs/op, and peak live heap per case as JSON (the committed BENCH_*.json
// baselines), and compares a fresh run against a committed baseline with a
// tolerance band.
//
// Machine independence: wall-clock ns/op is meaningless across machines, so
// the regression gate compares *normalized* time — each case's ns/op divided
// by the same run's reference-allocator yardstick (the alloc-1000/reference
// case, the frozen pre-fast-path implementation). Both sides of the ratio
// move with the hardware; the ratio moves only when the measured code
// changes relative to the frozen yardstick. Allocation counts are compared
// directly: they are hardware-independent.
package benchreg

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hdfs"
	"repro/internal/policy"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Schema is the BENCH_*.json format version.
const Schema = 1

// MinSpeedup1000 is the acceptance floor on the 1000-node microbenchmark:
// the incremental allocator must beat the frozen reference by at least this
// factor, measured in the same run.
const MinSpeedup1000 = 5.0

// Case is one benchmark case's measurements.
type Case struct {
	Name              string  `json:"name"`
	NsPerOp           float64 `json:"ns_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
	PeakLiveHeapBytes uint64  `json:"peak_live_heap_bytes"`
	// NsNorm is NsPerOp divided by the run's yardstick (the
	// alloc-1000/reference case); this is what the regression gate compares.
	NsNorm float64 `json:"ns_norm"`
}

// Report is one harness run: the unit of BENCH_*.json.
type Report struct {
	Schema      int     `json:"schema"`
	Mode        string  `json:"mode"` // "quick" or "full"
	YardstickNs float64 `json:"yardstick_ns"`
	// GOMAXPROCS records the parallelism the run had available.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Speedup1000 is reference ns/op ÷ incremental ns/op on the 1000-node
	// microbenchmark, both measured in this run.
	Speedup1000 float64 `json:"speedup_1000"`
	Cases       []Case  `json:"cases"`
}

// Find returns the named case, or nil.
func (r *Report) Find(name string) *Case {
	for i := range r.Cases {
		if r.Cases[i].Name == name {
			return &r.Cases[i]
		}
	}
	return nil
}

// The benchmark case names.
const (
	CaseSweep      = "sweep-quick-25"
	CaseAlloc1000  = "alloc-1000/incremental"
	CaseRef1000    = "alloc-1000/reference"
	CaseAlloc5000  = "alloc-5000/incremental"
	caseSweepSizes = 25
)

// PolicyCase names one policy-contender case: alloc-1k/policy-quincy and
// friends.
func PolicyCase(name string) string {
	return fmt.Sprintf("alloc-1k/policy-%s", name)
}

// MicroInstance builds the deterministic allocation microbenchmark instance:
// nodes nodes with two 2-slot executors each, eight applications with a
// dozen jobs of forty 3-replicated tasks, budgets set to an even share.
func MicroInstance(nodes int, rng *xrand.Rand) ([]core.AppDemand, []core.ExecInfo) {
	const (
		execsPerNode = 2
		apps         = 8
		jobsPerApp   = 12
		tasksPerJob  = 40
		replicas     = 3
	)
	var idle []core.ExecInfo
	for n := 0; n < nodes; n++ {
		for e := 0; e < execsPerNode; e++ {
			idle = append(idle, core.ExecInfo{ID: n*execsPerNode + e, Node: n, Slots: 2})
		}
	}
	var demands []core.AppDemand
	block := 0
	for a := 0; a < apps; a++ {
		ad := core.AppDemand{
			App:        a,
			Budget:     nodes * execsPerNode / apps,
			ExtraTasks: 4,
			TotalJobs:  jobsPerApp,
			LocalJobs:  a % 3,
			TotalTasks: jobsPerApp * tasksPerJob,
			LocalTasks: (a % 3) * tasksPerJob,
		}
		for j := 0; j < jobsPerApp; j++ {
			jd := core.JobDemand{Job: j}
			for k := 0; k < tasksPerJob; k++ {
				reps := make([]int, replicas)
				for r := range reps {
					reps[r] = rng.Intn(nodes)
				}
				jd.Tasks = append(jd.Tasks, core.TaskDemand{Task: k, Block: hdfs.BlockID(block), Nodes: reps})
				block++
			}
			ad.Jobs = append(ad.Jobs, jd)
		}
		demands = append(demands, ad)
	}
	return demands, idle
}

// Run executes the harness and returns the report. Quick mode shrinks the
// sweep workload (it is also what CI and the committed baselines use, so
// comparisons are quick-vs-quick).
func Run(quick bool, seed uint64) (*Report, error) {
	return RunProfiled(quick, seed, "")
}

// RunProfiled is Run with optional profile capture: when profileDir is
// non-empty, each case's benchmark loop runs under a CPU profile and is
// followed by a post-GC heap profile, written as
// <dir>/<case>.cpu.pprof and <dir>/<case>.heap.pprof ("/" in case names
// becomes "-"). Profiling skews ns/op slightly, so profiled runs should
// not be blessed as baselines.
func RunProfiled(quick bool, seed uint64, profileDir string) (*Report, error) {
	if profileDir != "" {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return nil, fmt.Errorf("benchreg: %w", err)
		}
	}
	var profErr error
	measure := measureCase
	if profileDir != "" {
		measure = func(name string, bench func(b *testing.B), once func()) Case {
			c, err := profiledCase(name, profileDir, bench, once)
			if err != nil && profErr == nil {
				profErr = err
			}
			return c
		}
	}
	rep := &Report{Schema: Schema, Mode: mode(quick), GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// Fig. 7–10 shrunken grid through the full simulation stack.
	opts := experiments.DefaultOptions()
	opts.Seed = seed
	opts.Quick = true
	var sweepErr error
	sweep := func() {
		_, sweepErr = experiments.RunSweep([]int{caseSweepSizes}, workload.Kinds(),
			[]experiments.ManagerKind{experiments.Standalone, experiments.Custody}, opts)
	}
	sweepCase := measure(CaseSweep, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep()
		}
	}, sweep)
	if sweepErr != nil {
		return nil, fmt.Errorf("benchreg: sweep case: %w", sweepErr)
	}

	// Allocation microbenchmarks: incremental fast path (warm session, the
	// production round-trip pattern) vs the frozen reference, same instance.
	demands1k, idle1k := MicroInstance(1000, xrand.New(seed))
	coreOpts := core.DefaultOptions()
	sess := core.NewSession()
	incr1k := measure(CaseAlloc1000, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess.Allocate(demands1k, idle1k, coreOpts)
		}
	}, func() { sess.Allocate(demands1k, idle1k, coreOpts) })
	ref1k := measure(CaseRef1000, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.AllocateReference(demands1k, idle1k, coreOpts)
		}
	}, func() { core.AllocateReference(demands1k, idle1k, coreOpts) })

	demands5k, idle5k := MicroInstance(5000, xrand.New(seed))
	sess5k := core.NewSession()
	incr5k := measure(CaseAlloc5000, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess5k.Allocate(demands5k, idle5k, coreOpts)
		}
	}, func() { sess5k.Allocate(demands5k, idle5k, coreOpts) })

	rep.Cases = []Case{sweepCase, incr1k, ref1k, incr5k}

	// Policy contenders on the same 1k-node instance. The custody policy is
	// alloc-1000/incremental by construction (the manager short-circuits it
	// to the warm session), so only the contenders get cases. They are
	// absent from the committed baseline, which makes them informational:
	// the gate ranks them without failing CI on their drift (DESIGN.md §16).
	for _, name := range policy.Names() {
		if name == policy.Custody {
			continue
		}
		p, err := policy.New(name)
		if err != nil {
			return nil, fmt.Errorf("benchreg: %w", err)
		}
		rep.Cases = append(rep.Cases, measure(PolicyCase(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Allocate(demands1k, idle1k, coreOpts)
			}
		}, func() { p.Allocate(demands1k, idle1k, coreOpts) }))
	}

	// 100k-node-scale rounds. The demand profile is the same fixed
	// MicroInstance workload, so these instances are cluster-heavy: the
	// executor index build dominates the round.
	for _, nodes := range []int{50000, 100000} {
		demands, idle := MicroInstance(nodes, xrand.New(seed))
		sess := core.NewSession()
		rep.Cases = append(rep.Cases, measure(fmt.Sprintf("alloc-%dk/incremental", nodes/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess.Allocate(demands, idle, coreOpts)
			}
		}, func() { sess.Allocate(demands, idle, coreOpts) }))
	}

	rep.YardstickNs = ref1k.NsPerOp
	for i := range rep.Cases {
		rep.Cases[i].NsNorm = rep.Cases[i].NsPerOp / rep.YardstickNs
	}
	if incr1k.NsPerOp > 0 {
		rep.Speedup1000 = ref1k.NsPerOp / incr1k.NsPerOp
	}
	if profErr != nil {
		return nil, fmt.Errorf("benchreg: profile capture: %w", profErr)
	}
	return rep, nil
}

func mode(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// measureCase runs one case under testing.Benchmark and samples its peak
// live heap: the growth of HeapAlloc across a single un-GC'd run after a
// forced collection — an approximation of the case's peak live working set.
func measureCase(name string, bench func(b *testing.B), once func()) Case {
	r := testing.Benchmark(bench)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	once()
	runtime.ReadMemStats(&after)
	peak := uint64(0)
	if after.HeapAlloc > before.HeapAlloc {
		peak = after.HeapAlloc - before.HeapAlloc
	}
	return Case{
		Name:              name,
		NsPerOp:           float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:       r.AllocsPerOp(),
		BytesPerOp:        r.AllocedBytesPerOp(),
		PeakLiveHeapBytes: peak,
	}
}

// profiledCase is measureCase under runtime/pprof capture: the CPU profile
// covers the benchmark loop plus the heap-sampling run; the heap profile is
// written after a forced GC, so it shows the case's live retained set.
func profiledCase(name, dir string, bench func(b *testing.B), once func()) (Case, error) {
	base := filepath.Join(dir, strings.ReplaceAll(name, "/", "-"))
	cf, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return Case{}, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cerr := cf.Close()
		if cerr != nil {
			return Case{}, fmt.Errorf("%w (and closing profile: %v)", err, cerr)
		}
		return Case{}, err
	}
	c := measureCase(name, bench, once)
	pprof.StopCPUProfile()
	if err := cf.Close(); err != nil {
		return c, err
	}
	hf, err := os.Create(base + ".heap.pprof")
	if err != nil {
		return c, err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(hf)
	if cerr := hf.Close(); err == nil {
		err = cerr
	}
	return c, err
}

// Compare checks a fresh run against a committed baseline and returns the
// violations (empty = gate passes). tol is the fractional tolerance band
// (0.15 = 15%). Normalized time and allocation counts are gated; peak heap
// is informational (it depends on GC timing). New cases absent from the
// baseline pass (they are blessed on the next baseline update); cases
// missing from the current run fail.
func Compare(cur, base *Report, tol float64) []string {
	var violations []string
	if cur.Mode != base.Mode {
		violations = append(violations,
			fmt.Sprintf("mode mismatch: current %q vs baseline %q (compare like with like)", cur.Mode, base.Mode))
		return violations
	}
	names := make([]string, 0, len(base.Cases))
	for _, c := range base.Cases {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		bc := base.Find(name)
		cc := cur.Find(name)
		if cc == nil {
			violations = append(violations, fmt.Sprintf("%s: present in baseline but not in current run", name))
			continue
		}
		if limit := bc.NsNorm * (1 + tol); cc.NsNorm > limit {
			violations = append(violations,
				fmt.Sprintf("%s: normalized time %.3f exceeds baseline %.3f by more than %.0f%% (limit %.3f)",
					name, cc.NsNorm, bc.NsNorm, tol*100, limit))
		}
		// Small absolute slack absorbs counting jitter on tiny cases.
		if limit := float64(bc.AllocsPerOp)*(1+tol) + 16; float64(cc.AllocsPerOp) > limit {
			violations = append(violations,
				fmt.Sprintf("%s: allocs/op %d exceeds baseline %d by more than %.0f%% (limit %.0f)",
					name, cc.AllocsPerOp, bc.AllocsPerOp, tol*100, limit))
		}
	}
	if cur.Speedup1000 < MinSpeedup1000 {
		violations = append(violations,
			fmt.Sprintf("speedup_1000 = %.2f below the required %.0fx (incremental vs reference, same run)",
				cur.Speedup1000, MinSpeedup1000))
	}
	return violations
}

// WriteFile writes the report as indented JSON.
func WriteFile(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a BENCH_*.json report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchreg: parse %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("benchreg: %s has schema %d, this binary understands %d", path, r.Schema, Schema)
	}
	return &r, nil
}
