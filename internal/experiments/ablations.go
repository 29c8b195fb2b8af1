package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ApproxRow compares Algorithm 2's greedy intra-application allocation with
// the exact optimum (min-cost-flow) and the fractional concurrent-flow upper
// bound on one random instance.
type ApproxRow struct {
	Instance   int
	Tasks      int
	Executors  int
	Budget     int
	Greedy     float64 // Σ 1/µ objective (Eq. 9)
	Optimal    float64
	Ratio      float64 // Greedy / Optimal (≥ 0.5 by the 2-approx bound)
	Fractional float64 // λ* upper bound for the single-app instance
}

// ApproxResult is ablation A1 (§III/§IV-B theory).
type ApproxResult struct {
	Rows      []ApproxRow
	MinRatio  float64
	MeanRatio float64
}

// RunApprox generates random intra-application instances and measures the
// greedy-vs-optimal objective ratio.
func RunApprox(instances int, seed uint64) ApproxResult {
	rng := xrand.New(seed)
	res := ApproxResult{MinRatio: 1}
	sum := 0.0
	for i := 0; i < instances; i++ {
		nodes := rng.IntRange(8, 24)
		var idle []core.ExecInfo
		for n := 0; n < nodes; n++ {
			idle = append(idle, core.ExecInfo{ID: n, Node: n})
		}
		var jobs []core.JobDemand
		taskCount := 0
		for j := 0; j < rng.IntRange(2, 6); j++ {
			jd := core.JobDemand{Job: j}
			for k := 0; k < rng.IntRange(1, 6); k++ {
				jd.Tasks = append(jd.Tasks, core.TaskDemand{
					Task:  k,
					Block: hdfs.BlockID(taskCount),
					Nodes: rng.Sample(nodes, rng.IntRange(1, 3)),
				})
				taskCount++
			}
			jobs = append(jobs, jd)
		}
		budget := rng.IntRange(1, nodes)
		greedy, _ := core.GreedyIntraObjective(jobs, idle, budget)
		opt := core.OptimalIntraObjective(jobs, idle, budget)
		frac := core.FractionalMaxMin([]core.AppDemand{{App: 0, Budget: budget, Jobs: jobs}}, idle, 1e-3)
		ratio := 1.0
		if opt > 0 {
			ratio = greedy / opt
		}
		res.Rows = append(res.Rows, ApproxRow{
			Instance: i, Tasks: taskCount, Executors: nodes, Budget: budget,
			Greedy: greedy, Optimal: opt, Ratio: ratio, Fractional: frac,
		})
		if ratio < res.MinRatio {
			res.MinRatio = ratio
		}
		sum += ratio
	}
	if len(res.Rows) > 0 {
		res.MeanRatio = sum / float64(len(res.Rows))
	}
	return res
}

// Render formats the approximation ablation.
func (r ApproxResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A1 — greedy (Algorithm 2) vs optimal intra-app allocation (Eq. 9)\n")
	fmt.Fprintf(&b, "instances=%d  mean ratio=%.4f  min ratio=%.4f (theory bound: ≥ 0.5)\n",
		len(r.Rows), r.MeanRatio, r.MinRatio)
	return b.String()
}

// StrategyRow compares intra-application strategies on one-shot allocation
// rounds (Fig. 4–5's regime: a budget smaller than the demand).
type StrategyRow struct {
	Strategy string
	// LocalJobs is the mean fraction of perfectly-local jobs per instance.
	LocalJobs float64
	// LocalTasks is the mean fraction of local tasks per instance.
	LocalTasks float64
	// AvgUnits is the mean job completion time under the paper's Fig. 5
	// cost model: a local task finishes in 0.5 time units and a network
	// fetch takes 2, so a perfectly local job completes in 0.5 units and a
	// straggling one in 2.
	AvgUnits float64
}

// IntraResult is ablation A2.
type IntraResult struct {
	Rows      []StrategyRow
	Instances int
}

// RunIntra draws random scarce-budget allocation instances and compares the
// paper's priority rule (Algorithm 2) against job-fairness, measuring the
// number of perfectly-local jobs and the Fig. 5 stylized completion time.
func RunIntra(opts Options) (IntraResult, error) {
	opts = opts.normalize()
	instances := 300
	if opts.Quick {
		instances = 50
	}
	rng := xrand.New(opts.Seed)
	type acc struct{ localJobs, localTasks, units, n float64 }
	accs := map[string]*acc{"priority": {}, "fairness": {}}
	for i := 0; i < instances; i++ {
		nodes := rng.IntRange(6, 20)
		var idle []core.ExecInfo
		for n := 0; n < nodes; n++ {
			idle = append(idle, core.ExecInfo{ID: n, Node: n})
		}
		var jobs []core.JobDemand
		totalTasks := 0
		for j := 0; j < rng.IntRange(2, 6); j++ {
			jd := core.JobDemand{Job: j}
			for k := 0; k < rng.IntRange(1, 5); k++ {
				jd.Tasks = append(jd.Tasks, core.TaskDemand{
					Task: k, Block: hdfs.BlockID(totalTasks),
					Nodes: rng.Sample(nodes, rng.IntRange(1, 3)),
				})
				totalTasks++
			}
			jobs = append(jobs, jd)
		}
		// Scarce budget: roughly half the demand.
		budget := totalTasks/2 + 1
		for _, strat := range []core.IntraStrategy{core.PriorityIntra{}, core.FairnessIntra{}} {
			plan := core.Allocate(
				[]core.AppDemand{{App: 0, Budget: budget, Jobs: jobs}},
				idle, core.Options{FillToBudget: false, Intra: strat})
			perJob := map[int]int{}
			for _, as := range plan.Assignments {
				if as.Local {
					perJob[as.Job]++
				}
			}
			localJobs, localTasks, units := 0, 0, 0.0
			for _, jd := range jobs {
				localTasks += perJob[jd.Job]
				if perJob[jd.Job] == len(jd.Tasks) {
					localJobs++
					units += 0.5
				} else {
					units += 2 // the straggler dominates the completion time
				}
			}
			a := accs[strat.Name()]
			a.localJobs += float64(localJobs) / float64(len(jobs))
			a.localTasks += float64(localTasks) / float64(totalTasks)
			a.units += units / float64(len(jobs))
			a.n++
		}
	}
	var out IntraResult
	out.Instances = instances
	for _, name := range []string{"priority", "fairness"} {
		a := accs[name]
		out.Rows = append(out.Rows, StrategyRow{
			Strategy:   name,
			LocalJobs:  a.localJobs / a.n,
			LocalTasks: a.localTasks / a.n,
			AvgUnits:   a.units / a.n,
		})
	}
	return out, nil
}

// Render formats the intra-strategy ablation.
func (r IntraResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A2 — intra-application strategy under scarce budgets (Fig. 4–5), %d instances\n", r.Instances)
	fmt.Fprintf(&b, "%-10s %11s %12s %14s\n", "strategy", "localJobs", "localTasks", "avgJCT(units)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.3f %11.3f %13.3f\n",
			row.Strategy, row.LocalJobs, row.LocalTasks, row.AvgUnits)
	}
	return b.String()
}

// PlacementRow is one row of the Scarlett ablation.
type PlacementRow struct {
	Policy   string
	Manager  ManagerKind
	Locality float64
	JCT      float64
}

// ScarlettResult is ablation A3: popularity-based replication (§VII) under
// skewed file popularity, for both managers.
type ScarlettResult struct{ Rows []PlacementRow }

// RunScarlett compares random placement with Scarlett-style popularity
// placement under a heavily skewed access pattern.
func RunScarlett(opts Options) (ScarlettResult, error) {
	opts = opts.normalize()
	spec := workload.DefaultSpec(workload.WordCount)
	spec.ZipfSkew = 1.4 // hot files
	spec.DatasetFiles = 10
	sched := opts.schedule(spec)

	// Popularity weights follow the Zipf ranks the generator uses.
	weights := map[string]float64{}
	for i, f := range sched.Files {
		w := 3.0 / float64(i+1) * 3
		if w < 1 {
			w = 1
		}
		weights[f.Name] = w
	}
	var out ScarlettResult
	for _, mk := range []ManagerKind{Standalone, Custody} {
		for _, pol := range []hdfs.PlacementPolicy{hdfs.RandomPolicy{}, &hdfs.PopularityPolicy{Weights: weights, MaxExtra: 6}} {
			cfg := opts.config(NewManager(mk, opts.Seed))
			cfg.Placement = pol
			col, err := driver.RunSchedule(cfg, sched)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, PlacementRow{
				Policy:   pol.Name(),
				Manager:  mk,
				Locality: metrics.Summarize(col.LocalityPerJob()).Mean,
				JCT:      metrics.Summarize(col.JobCompletionTimes()).Mean,
			})
		}
	}
	return out, nil
}

// Render formats the Scarlett ablation.
func (r ScarlettResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A3 — popularity-based replication (Scarlett, §VII) under skew\n")
	fmt.Fprintf(&b, "%-10s %-12s %10s %12s\n", "manager", "placement", "locality", "meanJCT(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-12s %9.3f %11.2f\n", row.Manager, row.Policy, row.Locality, row.JCT)
	}
	return b.String()
}

// OfferRow is one row of the Mesos-offer ablation.
type OfferRow struct {
	Manager    ManagerKind
	Locality   float64
	JCT        float64
	SchedDelay float64
	Rejections int
}

// OfferResult is ablation A4: the offer-based dynamic manager suffers
// repeated rejections under data-aware task scheduling (§II-A).
type OfferResult struct{ Rows []OfferRow }

// RunOffer compares standalone, offer-based, and Custody managers.
func RunOffer(opts Options) (OfferResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.WordCount))
	var out OfferResult
	for _, mk := range []ManagerKind{Standalone, Offer, Custody} {
		col, err := driver.RunSchedule(opts.config(NewManager(mk, opts.Seed)), sched)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, OfferRow{
			Manager:    mk,
			Locality:   metrics.Summarize(col.LocalityPerJob()).Mean,
			JCT:        metrics.Summarize(col.JobCompletionTimes()).Mean,
			SchedDelay: metrics.Summarize(col.SchedulerDelays()).Mean,
			Rejections: col.OfferRejections,
		})
	}
	return out, nil
}

// Render formats the offer ablation.
func (r OfferResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A4 — offer-based dynamic sharing (Mesos-like, §II-A), WordCount\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %11s\n", "manager", "locality", "meanJCT(s)", "delay(s)", "rejections")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9.3f %11.2f %11.3f %11d\n",
			row.Manager, row.Locality, row.JCT, row.SchedDelay, row.Rejections)
	}
	return b.String()
}

// WaitRow is one locality-wait setting's outcome.
type WaitRow struct {
	WaitSec  float64
	Manager  ManagerKind
	Locality float64
	JCT      float64
	Delay    float64
}

// WaitResult is ablation A5: sensitivity to the delay-scheduling wait.
type WaitResult struct{ Rows []WaitRow }

// RunWait sweeps spark.locality.wait for both managers.
func RunWait(opts Options, waits []float64) (WaitResult, error) {
	opts = opts.normalize()
	if len(waits) == 0 {
		waits = []float64{0, 1, 3, 10}
	}
	sched := opts.schedule(workload.DefaultSpec(workload.Sort))
	var out WaitResult
	for _, w := range waits {
		for _, mk := range []ManagerKind{Standalone, Custody} {
			cfg := opts.config(NewManager(mk, opts.Seed))
			cfg.LocalityWait = w
			col, err := driver.RunSchedule(cfg, sched)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, WaitRow{
				WaitSec: w, Manager: mk,
				Locality: metrics.Summarize(col.LocalityPerJob()).Mean,
				JCT:      metrics.Summarize(col.JobCompletionTimes()).Mean,
				Delay:    metrics.Summarize(col.SchedulerDelays()).Mean,
			})
		}
	}
	return out, nil
}

// Render formats the wait ablation.
func (r WaitResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A5 — delay-scheduling wait sweep (Sort)\n")
	fmt.Fprintf(&b, "%-8s %-10s %10s %12s %10s\n", "wait(s)", "manager", "locality", "meanJCT(s)", "delay(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8.1f %-10s %9.3f %11.2f %9.3f\n",
			row.WaitSec, row.Manager, row.Locality, row.JCT, row.Delay)
	}
	return b.String()
}

// SpecRow is one speculation setting's outcome.
type SpecRow struct {
	Speculation bool
	JCT         metrics.Summary
	TailJCT     float64 // p95
}

// SpecResult is ablation A6: straggler mitigation (speculative execution)
// interacting with Custody (§IV-B mentions straggler mitigation as
// complementary).
type SpecResult struct{ Rows []SpecRow }

// RunSpeculation compares Custody with and without speculative execution
// under high compute-time variance.
func RunSpeculation(opts Options) (SpecResult, error) {
	opts = opts.normalize()
	sched := opts.schedule(workload.DefaultSpec(workload.Sort))
	var out SpecResult
	for _, on := range []bool{false, true} {
		cfg := opts.config(NewManager(Custody, opts.Seed))
		cfg.StragglerProb = 0.05 // heavy tail: 5% of tasks run 4× longer
		cfg.Speculation = on
		col, err := driver.RunSchedule(cfg, sched)
		if err != nil {
			return out, err
		}
		s := metrics.Summarize(col.JobCompletionTimes())
		out.Rows = append(out.Rows, SpecRow{Speculation: on, JCT: s, TailJCT: s.P95})
	}
	return out, nil
}

// Render formats the speculation ablation.
func (r SpecResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A6 — speculative execution under high variance (Sort + Custody)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "speculation", "meanJCT(s)", "p95JCT(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12v %11.2f %11.2f\n", row.Speculation, row.JCT.Mean, row.TailJCT)
	}
	return b.String()
}
