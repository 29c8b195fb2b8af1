package custody

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestAllocateFacade(t *testing.T) {
	apps := []AppDemand{
		{App: 1, Budget: 2, Jobs: []JobDemand{
			{Job: 1, Tasks: []TaskDemand{{Task: 1, Block: 0, Nodes: []int{0}}, {Task: 2, Block: 1, Nodes: []int{1}}}},
		}},
	}
	idle := []ExecInfo{{ID: 0, Node: 0}, {ID: 1, Node: 1}}
	plan := Allocate(apps, idle, DefaultAllocateOptions())
	if len(plan.Assignments) != 2 || plan.LocalCount() != 2 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestComparatorsFacade(t *testing.T) {
	jobs := []JobDemand{{Job: 1, Tasks: []TaskDemand{{Task: 1, Block: 0, Nodes: []int{0}}}}}
	idle := []ExecInfo{{ID: 0, Node: 0}}
	if got := OptimalIntraObjective(jobs, idle, 1); got != 1 {
		t.Fatalf("optimal objective = %v", got)
	}
	apps := []AppDemand{{App: 0, Budget: 1, Jobs: jobs}}
	if got := FractionalMaxMin(apps, idle, 1e-3); got != 1 {
		t.Fatalf("fractional bound = %v", got)
	}
}

func quickCfg(m ManagerName) Config {
	return Config{Nodes: 10, Manager: m, Seed: 3}
}

func quickWl() Workload {
	return Workload{Kind: "Sort", Apps: 2, JobsPerApp: 2, MeanInterarrival: 2, Seed: 5}
}

func TestRunFacade(t *testing.T) {
	res, err := Run(quickCfg(ManagerCustody), quickWl())
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs() != 4 {
		t.Fatalf("jobs = %d", res.Jobs())
	}
	if l := res.MeanLocality(); l < 0 || l > 1 {
		t.Fatalf("locality = %v", l)
	}
	if res.MeanJCT() <= 0 || res.MeanInputStageSec() <= 0 {
		t.Fatalf("JCT=%v input=%v", res.MeanJCT(), res.MeanInputStageSec())
	}
	if res.MeanSchedulerDelay() < 0 {
		t.Fatalf("delay = %v", res.MeanSchedulerDelay())
	}
	if p := res.PctLocalJobs(); p < 0 || p > 1 {
		t.Fatalf("pct local jobs = %v", p)
	}
}

func TestRunAllManagers(t *testing.T) {
	for _, m := range []ManagerName{ManagerCustody, ManagerStandalone, ManagerOffer} {
		res, err := Run(quickCfg(m), quickWl())
		if err != nil {
			t.Fatalf("[%s] %v", m, err)
		}
		if res.Jobs() != 4 {
			t.Fatalf("[%s] jobs = %d", m, res.Jobs())
		}
	}
}

func TestCompareFacade(t *testing.T) {
	spark, cust, err := Compare(quickCfg(""), quickWl(), ManagerStandalone, ManagerCustody)
	if err != nil {
		t.Fatal(err)
	}
	if spark.Jobs() != cust.Jobs() {
		t.Fatalf("job counts differ: %d vs %d", spark.Jobs(), cust.Jobs())
	}
}

// TestUnknownNamesRejected pins that the facade refuses every name it does
// not know instead of running a default or panicking deep in the driver:
// Run and Compare return an error naming the field and its valid values,
// and NewSimulation panics with that error, as driver.New does.
func TestUnknownNamesRejected(t *testing.T) {
	for _, c := range []struct {
		field, valid string
		cfg          func(*Config)
		wl           func(*Workload)
	}{
		{"Config.Manager", "custody | spark | yarn | offer", func(c *Config) { c.Manager = "mesos" }, nil},
		{"Config.Policy", "custody | quincy | wfair | locmatch", func(c *Config) { c.Policy = "drf" }, nil},
		{"Config.Scheduler", "delay | delay-taskset | fifo | locality-hard | quincy", func(c *Config) { c.Scheduler = "lifo" }, nil},
		{"Config.CachePolicy", "lru | 2q", func(c *Config) { c.CacheMB, c.CachePolicy = 64, "arc" }, nil},
		{"Workload.Kind", "WordCount | Sort | PageRank", nil, func(w *Workload) { w.Kind = "Grep" }},
	} {
		t.Run(c.field, func(t *testing.T) {
			cfg, wl := quickCfg(ManagerCustody), quickWl()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			if c.wl != nil {
				c.wl(&wl)
			}
			want := c.field + " "
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "(valid: "+c.valid+")") {
					t.Fatalf("%s: err = %v, want one naming %s and its valid values %s", what, err, c.field, c.valid)
				}
			}
			_, err := Run(cfg, wl)
			check("Run", err)
			_, _, err = Compare(cfg, wl, cfg.Manager, ManagerStandalone)
			check("Compare", err)
			if c.cfg == nil {
				return // NewSimulation takes no workload
			}
			func() {
				defer func() {
					err, _ := recover().(error)
					check("NewSimulation", err)
				}()
				NewSimulation(cfg)
			}()
		})
	}
}

func TestNewSimulationCustomDAG(t *testing.T) {
	sim := NewSimulation(quickCfg(ManagerCustody))
	f, err := sim.CreateInput("data", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.RegisterApp("custom")
	sim.Start()
	j := BuildJob("WordCount", 1, f)
	sim.SubmitJobAt(0.5, a, j)
	col := sim.Run()
	if len(col.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(col.Jobs))
	}
}

func TestFiguresQuick(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.Quick = true
	sw, err := Figures(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Fig7().Rows) == 0 {
		t.Fatal("empty Fig7")
	}
}

func TestYARNManagerFacade(t *testing.T) {
	res, err := Run(quickCfg(ManagerYARN), quickWl())
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs() != 4 {
		t.Fatalf("jobs = %d", res.Jobs())
	}
}

func TestSchedulerSelectionFacade(t *testing.T) {
	for _, s := range []string{"delay", "delay-taskset", "fifo", "quincy"} {
		cfg := quickCfg(ManagerCustody)
		cfg.Scheduler = s
		res, err := Run(cfg, quickWl())
		if err != nil {
			t.Fatalf("[%s] %v", s, err)
		}
		if res.Jobs() != 4 {
			t.Fatalf("[%s] jobs = %d", s, res.Jobs())
		}
	}
	// locality-hard can starve under multi-application contention (the
	// §VII critique of hard constraints: nothing guarantees access to the
	// executors storing the data), so it is exercised with a single app.
	cfg := quickCfg(ManagerCustody)
	cfg.Scheduler = "locality-hard"
	wl := quickWl()
	wl.Apps = 1
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs() != 2 {
		t.Fatalf("[locality-hard] jobs = %d", res.Jobs())
	}
}

func TestTraceFacade(t *testing.T) {
	cfg := quickCfg(ManagerCustody)
	cfg.Trace = true
	res, err := Run(cfg, quickWl())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("trace missing")
	}
	// Without Trace, no recorder is attached.
	cfg.Trace = false
	res2, err := Run(cfg, quickWl())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Fatal("unexpected trace recorder")
	}
}

func TestBuildLocalityNetworkFacade(t *testing.T) {
	apps := []AppDemand{{App: 0, Budget: 1, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{{Task: 1, Block: 0, Nodes: []int{0}}}},
	}}}
	idle := []ExecInfo{{ID: 0, Node: 0}}
	net := BuildLocalityNetwork(apps, idle)
	if net.Tasks() != 1 || len(net.UnservableTasks()) != 0 {
		t.Fatalf("network: tasks=%d unservable=%v", net.Tasks(), net.UnservableTasks())
	}
	if net.DOT() == "" {
		t.Fatal("empty DOT")
	}
}

func TestFailureInjectionFacade(t *testing.T) {
	sim := NewSimulation(quickCfg(ManagerCustody))
	f, err := sim.CreateInput("data", 512<<20)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.RegisterApp("x")
	sim.Start()
	sim.SubmitJobAt(1, a, BuildJob("Sort", 1, f))
	sim.FailNodeAt(2, 0)
	sim.RecoverNodeAt(10, 0)
	col := sim.Run()
	if len(col.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(col.Jobs))
	}
}
