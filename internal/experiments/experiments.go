// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) plus the ablations listed in DESIGN.md. Each harness runs
// the same workload schedule under the managers being compared and reports
// the metric the corresponding figure plots.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/driver"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ManagerKind names a cluster-manager strategy under test.
type ManagerKind string

// The managers compared in the evaluation.
const (
	Standalone ManagerKind = "spark"   // the paper's baseline
	Custody    ManagerKind = "custody" // the contribution
	Offer      ManagerKind = "offer"   // Mesos-like (§II-A ablation)
)

// NewManager instantiates a manager by kind. Each run gets a fresh instance.
func NewManager(kind ManagerKind, seed uint64) manager.Manager {
	switch kind {
	case Standalone:
		return manager.NewStandalone(xrand.New(seed), false)
	case Custody:
		return manager.NewCustody()
	case Offer:
		return manager.NewOffer()
	case YARN:
		return manager.NewYARN()
	default:
		panic(fmt.Sprintf("experiments: unknown manager %q", kind))
	}
}

// PaperSizes are the evaluated cluster sizes (§VI-A1: 25, 50, and 100
// worker nodes).
var PaperSizes = []int{25, 50, 100}

// Options tune a sweep without changing its structure.
type Options struct {
	Seed         uint64
	JobsPerApp   int     // default 30 (§VI-A2)
	Apps         int     // default 4
	LocalityWait float64 // default 3 s
	Quick        bool    // shrink the workload for fast tests
	// Repeats runs each grid point under this many seeds (Seed, Seed+1, …)
	// and pools the records, so reported std includes cross-seed variance.
	// Zero or one means a single run (the paper's methodology).
	Repeats int
}

// DefaultOptions mirrors the paper.
func DefaultOptions() Options {
	return Options{Seed: 1, JobsPerApp: 30, Apps: 4, LocalityWait: 3.0}
}

func (o Options) normalize() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.JobsPerApp == 0 {
		o.JobsPerApp = 30
	}
	if o.Apps == 0 {
		o.Apps = 4
	}
	if o.LocalityWait == 0 {
		o.LocalityWait = 3.0
	}
	if o.Quick {
		o.JobsPerApp = 6
	}
	return o
}

// schedule generates the submission schedule a study replays under every
// manager it compares ("a common job submission schedule that is shared by
// all the experiments", §VI-A2): spec sized by the options and drawn with
// their seed.
func (o Options) schedule(spec workload.Spec) workload.Schedule {
	spec.Apps = o.Apps
	spec.JobsPerApp = o.JobsPerApp
	return workload.Generate(spec, xrand.New(o.Seed))
}

// config is the paper's testbed running m, with the options' seed and
// locality wait. Studies change only the fields they vary.
func (o Options) config(m manager.Manager) driver.Config {
	cfg := driver.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.LocalityWait = o.LocalityWait
	cfg.Manager = m
	return cfg
}

// Cell is one (cluster size, workload, manager) measurement.
type Cell struct {
	Size    int
	Kind    workload.Kind
	Manager ManagerKind
	Col     *metrics.Collector
}

// Sweep runs the full evaluation grid once; Figures 7–10 are different
// projections of the same runs, exactly as in the paper.
type Sweep struct {
	Opts  Options
	Cells []Cell
}

// RunSweep executes the grid for the given sizes, workloads, and managers.
func RunSweep(sizes []int, kinds []workload.Kind, managers []ManagerKind, opts Options) (*Sweep, error) {
	opts = opts.normalize()
	repeats := opts.Repeats
	if repeats < 1 {
		repeats = 1
	}
	sw := &Sweep{Opts: opts}
	for _, kind := range kinds {
		for _, size := range sizes {
			for _, mk := range managers {
				pooled := metrics.NewCollector()
				for r := 0; r < repeats; r++ {
					o := opts
					o.Seed += uint64(r)
					cfg := o.config(NewManager(mk, o.Seed))
					cfg.Nodes = size
					cfg.RackSize = rackSize(size)
					col, err := driver.RunSchedule(cfg, o.schedule(workload.DefaultSpec(kind)))
					if err != nil {
						return nil, fmt.Errorf("sweep %s/%d/%s/seed%d: %w", kind, size, mk, o.Seed, err)
					}
					merge(pooled, col)
				}
				sw.Cells = append(sw.Cells, Cell{Size: size, Kind: kind, Manager: mk, Col: pooled})
			}
		}
	}
	return sw, nil
}

// merge appends src's records and counters into dst.
func merge(dst, src *metrics.Collector) {
	dst.Tasks = append(dst.Tasks, src.Tasks...)
	dst.Jobs = append(dst.Jobs, src.Jobs...)
	dst.OfferRejections += src.OfferRejections
	dst.Reallocations += src.Reallocations
	dst.ExecutorMigrations += src.ExecutorMigrations
	dst.TaskRetries += src.TaskRetries
	dst.AttemptFailures += src.AttemptFailures
	dst.BlacklistEvents += src.BlacklistEvents
	dst.ReplicationStalls += src.ReplicationStalls
	dst.ReplicasRestored += src.ReplicasRestored
	dst.RecoverySec = append(dst.RecoverySec, src.RecoverySec...)
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.CacheEvictions += src.CacheEvictions
	if src.CacheByNode != nil {
		nodes := make([]int, 0, len(src.CacheByNode))
		for n := range src.CacheByNode {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			s, d := src.CacheByNode[n], dst.NodeCache(n)
			d.Hits += s.Hits
			d.Misses += s.Misses
			d.Evictions += s.Evictions
		}
	}
}

func rackSize(nodes int) int {
	rs := nodes / 5
	if rs < 1 {
		rs = 1
	}
	return rs
}

// Find returns the cell for a grid point, or nil.
func (s *Sweep) Find(size int, kind workload.Kind, mk ManagerKind) *Cell {
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Size == size && c.Kind == kind && c.Manager == mk {
			return c
		}
	}
	return nil
}

// Sizes returns the distinct cluster sizes in the sweep, ascending.
func (s *Sweep) Sizes() []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range s.Cells {
		if !seen[c.Size] {
			seen[c.Size] = true
			out = append(out, c.Size)
		}
	}
	sort.Ints(out)
	return out
}

// Kinds returns the distinct workloads in the sweep.
func (s *Sweep) Kinds() []workload.Kind {
	seen := map[workload.Kind]bool{}
	var out []workload.Kind
	for _, c := range s.Cells {
		if !seen[c.Kind] {
			seen[c.Kind] = true
			out = append(out, c.Kind)
		}
	}
	return out
}

// Row is one comparison row in a rendered figure table.
type Row struct {
	Size     int
	Kind     workload.Kind
	Baseline metrics.Summary
	Custody  metrics.Summary
	// GainPct is the improvement of Custody over the baseline in percent;
	// positive is better for Custody regardless of metric direction.
	GainPct float64
}

// Table is a rendered figure.
type Table struct {
	Title  string
	Metric string
	Rows   []Row
}

// gain computes a percentage improvement where "higherBetter" selects the
// metric's direction.
func gain(base, cust float64, higherBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherBetter {
		return (cust - base) / base * 100
	}
	return (base - cust) / base * 100
}

// project renders a table by applying an extractor to every grid point.
func (s *Sweep) project(title, metric string, higherBetter bool, sizes []int,
	extract func(*metrics.Collector) []float64) Table {

	t := Table{Title: title, Metric: metric}
	for _, size := range sizes {
		for _, kind := range s.Kinds() {
			base := s.Find(size, kind, Standalone)
			cust := s.Find(size, kind, Custody)
			if base == nil || cust == nil {
				continue
			}
			b := metrics.Summarize(extract(base.Col))
			c := metrics.Summarize(extract(cust.Col))
			t.Rows = append(t.Rows, Row{
				Size: size, Kind: kind,
				Baseline: b, Custody: c,
				GainPct: gain(b.Mean, c.Mean, higherBetter),
			})
		}
	}
	return t
}

// Fig7 is the data-locality figure: percentage of local input tasks per job
// (mean ± std), per workload and cluster size.
func (s *Sweep) Fig7() Table {
	return s.project(
		"Fig. 7 — Data locality of input tasks (fraction of local input tasks per job)",
		"locality", true, s.Sizes(),
		func(c *metrics.Collector) []float64 { return c.LocalityPerJob() })
}

// Fig8 is the average job completion time figure.
func (s *Sweep) Fig8() Table {
	return s.project(
		"Fig. 8 — Average job completion times (s)",
		"JCT(s)", false, s.Sizes(),
		func(c *metrics.Collector) []float64 { return c.JobCompletionTimes() })
}

// Fig9 is the input-stage completion time figure (100-node cluster in the
// paper; we render the largest size in the sweep).
func (s *Sweep) Fig9() Table {
	sizes := s.Sizes()
	if len(sizes) > 1 {
		sizes = sizes[len(sizes)-1:]
	}
	return s.project(
		"Fig. 9 — Average completion time of input (map) stages (s), largest cluster",
		"input-stage(s)", false, sizes,
		func(c *metrics.Collector) []float64 { return c.InputStageTimes() })
}

// Fig10 is the scheduler-delay figure, per cluster size (aggregated over
// workloads, as the paper plots delay against cluster size).
func (s *Sweep) Fig10() Table {
	return s.project(
		"Fig. 10 — Scheduler delay (s) per task",
		"delay(s)", false, s.Sizes(),
		func(c *metrics.Collector) []float64 { return c.SchedulerDelays() })
}

// Render formats a table for terminals.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-6s %-10s %14s %14s %9s\n", "nodes", "workload",
		"spark(mean±std)", "custody(mean±std)", "gain")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-6d %-10s %7.3f±%-6.3f %7.3f±%-6.3f %8.2f%%\n",
			r.Size, r.Kind, r.Baseline.Mean, r.Baseline.Std,
			r.Custody.Mean, r.Custody.Std, r.GainPct)
	}
	return b.String()
}

// AverageGain returns the mean gain over the table's rows — e.g. the
// paper's headline "+36.9% locality / −4.9% JCT" aggregates.
func (t Table) AverageGain() float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range t.Rows {
		sum += r.GainPct
	}
	return sum / float64(len(t.Rows))
}

// RenderBars draws the table as grouped ASCII bars (one pair per row),
// the terminal stand-in for the paper's bar charts.
func (t Table) RenderBars() string {
	const width = 40
	maxv := 0.0
	for _, r := range t.Rows {
		if r.Baseline.Mean > maxv {
			maxv = r.Baseline.Mean
		}
		if r.Custody.Mean > maxv {
			maxv = r.Custody.Mean
		}
	}
	if maxv == 0 {
		maxv = 1
	}
	bar := func(v float64, ch string) string {
		n := int(v / maxv * width)
		if n < 0 {
			n = 0
		}
		return strings.Repeat(ch, n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%s]\n", t.Title, t.Metric)
	for _, r := range t.Rows {
		label := fmt.Sprintf("%d/%s", r.Size, r.Kind)
		fmt.Fprintf(&b, "%-16s spark   %8.3f |%s\n", label, r.Baseline.Mean, bar(r.Baseline.Mean, "#"))
		fmt.Fprintf(&b, "%-16s custody %8.3f |%s\n", "", r.Custody.Mean, bar(r.Custody.Mean, "="))
	}
	return b.String()
}
