package driver

import (
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func failureSchedule(seed uint64) workload.Schedule {
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 3, MeanInterarrival: 3, DatasetFiles: 2}
	return workload.Generate(spec, xrand.New(seed))
}

// runWithFailures injects node failures mid-run and returns the driver.
func runWithFailures(t *testing.T, mgr manager.Manager, failAt []float64, nodes []int, recover bool) *Driver {
	t.Helper()
	cfg := smallConfig(mgr)
	sched := failureSchedule(13)
	d, err := NewScheduled(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range failAt {
		d.FailNodeAt(at, nodes[i])
		if recover {
			d.RecoverNodeAt(at+20, nodes[i])
		}
	}
	d.Run()
	return d
}

func TestNodeFailureJobsStillComplete(t *testing.T) {
	for _, mk := range []func() manager.Manager{
		custodyMgr, standaloneMgr,
		func() manager.Manager { return manager.NewYARN() },
	} {
		mgr := mk()
		d := runWithFailures(t, mgr, []float64{5.0}, []int{2}, false)
		col := d.Collector()
		if len(col.Jobs) != 6 {
			t.Fatalf("[%s] completed %d jobs after failure, want 6", mgr.Name(), len(col.Jobs))
		}
		if err := d.Cluster().Validate(); err != nil {
			t.Fatalf("[%s] %v", mgr.Name(), err)
		}
		if err := d.failNodeSanity(); err != nil {
			t.Fatalf("[%s] %v", mgr.Name(), err)
		}
		// The failed node must host nothing.
		for _, e := range d.Cluster().Node(2).Executors() {
			if e.Alive() {
				t.Fatalf("[%s] executor on failed node still alive", mgr.Name())
			}
			if e.Running() != 0 {
				t.Fatalf("[%s] task still on failed node", mgr.Name())
			}
		}
	}
}

func TestNodeFailureReReplicates(t *testing.T) {
	d := runWithFailures(t, custodyMgr(), []float64{4.0}, []int{1}, false)
	// Every block of every file must retain full replication (8-node
	// cluster, 3 replicas, one node lost).
	for _, name := range d.nn.Files() {
		f, _ := d.nn.Open(name)
		for _, b := range f.Blocks {
			locs := d.nn.Locations(b.ID)
			if len(locs) < 3 {
				t.Fatalf("block %d has %d live replicas after failure", b.ID, len(locs))
			}
			for _, n := range locs {
				if n == 1 {
					t.Fatalf("block %d lists the dead node", b.ID)
				}
			}
		}
	}
}

func TestNodeFailureAndRecovery(t *testing.T) {
	d := runWithFailures(t, custodyMgr(), []float64{4.0}, []int{3}, true)
	if len(d.Collector().Jobs) != 6 {
		t.Fatalf("jobs = %d", len(d.Collector().Jobs))
	}
	for _, e := range d.Cluster().Node(3).Executors() {
		if !e.Alive() {
			t.Fatal("executor still dead after recovery")
		}
	}
}

func TestMultipleFailures(t *testing.T) {
	d := runWithFailures(t, custodyMgr(), []float64{3.0, 6.0}, []int{0, 5}, false)
	if len(d.Collector().Jobs) != 6 {
		t.Fatalf("jobs = %d after two node failures", len(d.Collector().Jobs))
	}
	// Tasks that were interrupted re-ran: attempts counters must reflect it.
	retried := 0
	for _, a := range d.apps {
		for _, j := range a.Jobs {
			for _, s := range j.Stages {
				for _, task := range s.Tasks {
					if task.Attempts > 1 {
						retried++
					}
				}
			}
		}
	}
	t.Logf("retried tasks: %d", retried)
}

func TestFailureDeterministic(t *testing.T) {
	run := func() []float64 {
		d := runWithFailures(t, custodyMgr(), []float64{5.0}, []int{2}, true)
		return d.Collector().JobCompletionTimes()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("failure replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestYARNManagerRuns(t *testing.T) {
	spec := workload.Spec{Kind: workload.WordCount, Apps: 2, JobsPerApp: 3, MeanInterarrival: 2, DatasetFiles: 2}
	sched := workload.Generate(spec, xrand.New(21))
	col, err := RunSchedule(smallConfig(manager.NewYARN()), sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Jobs) != 6 {
		t.Fatalf("jobs = %d", len(col.Jobs))
	}
}

func TestQuincySchedulerRuns(t *testing.T) {
	cfg := smallConfig(custodyMgr())
	cfg.Scheduler = SchedQuincy
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 2, MeanInterarrival: 3, DatasetFiles: 1}
	col, err := RunSchedule(cfg, workload.Generate(spec, xrand.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Jobs) != 4 {
		t.Fatalf("jobs = %d", len(col.Jobs))
	}
}

func TestTaskSetSchedulerRuns(t *testing.T) {
	cfg := smallConfig(custodyMgr())
	cfg.Scheduler = SchedDelayTaskSet
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 2, MeanInterarrival: 3, DatasetFiles: 1}
	col, err := RunSchedule(cfg, workload.Generate(spec, xrand.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Jobs) != 4 {
		t.Fatalf("jobs = %d", len(col.Jobs))
	}
}

func TestDriverEmitsTrace(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := smallConfig(custodyMgr())
	cfg.Tracer = rec
	d := New(cfg)
	f, _ := d.CreateInput("in", 256<<20)
	a := d.RegisterApp("traced")
	d.Start()
	b := app.NewJob(1, "Sort", "in")
	in := b.AddInputStage("map", f.Blocks, app.TaskSpec{ComputeSec: 1, OutputBytes: 32 << 20})
	b.AddShuffleStage("reduce", []*app.Stage{in}, 2, 64<<20, app.TaskSpec{ComputeSec: 0.5})
	d.SubmitJobAt(1.0, a, b.Build())
	d.FailNodeAt(2.0, 7)
	d.Run()

	if rec.Count(trace.AppRegister) != 1 {
		t.Fatalf("app-register events = %d", rec.Count(trace.AppRegister))
	}
	if rec.Count(trace.JobSubmit) != 1 || rec.Count(trace.JobFinish) != 1 {
		t.Fatalf("job events = %d/%d", rec.Count(trace.JobSubmit), rec.Count(trace.JobFinish))
	}
	// 6 tasks at least (retries may add more launches).
	if rec.Count(trace.TaskLaunch) < 6 || rec.Count(trace.TaskFinish) < 6 {
		t.Fatalf("task events = %d/%d", rec.Count(trace.TaskLaunch), rec.Count(trace.TaskFinish))
	}
	if rec.Count(trace.NodeFail) != 1 {
		t.Fatalf("node-fail events = %d", rec.Count(trace.NodeFail))
	}
	if rec.Count(trace.ExecAlloc) == 0 {
		t.Fatal("no allocation events")
	}
	// Timeline must be time-ordered.
	last := -1.0
	for _, e := range rec.Events {
		if e.Time < last {
			t.Fatalf("trace out of order at %+v", e)
		}
		last = e.Time
	}
	if u := rec.Utilization(d.Cluster().TotalExecutors() * 4); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

// TestUtilizationCountsRetriedAttempts runs a chaos schedule that kills
// running attempts and checks that BusySlotSeconds credits the killed
// attempts' occupancy: it must exceed the retry-blind pairing (the pre-fix
// implementation, reconstructed inline), which silently dropped the first
// attempt of every retried task.
func TestUtilizationCountsRetriedAttempts(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := smallConfig(custodyMgr())
	cfg.Tracer = rec
	d := New(cfg)
	f, _ := d.CreateInput("in", 256<<20)
	a := d.RegisterApp("retry-heavy")
	d.Start()
	b := app.NewJob(1, "Sort", "in")
	in := b.AddInputStage("map", f.Blocks, app.TaskSpec{ComputeSec: 2, OutputBytes: 32 << 20})
	b.AddShuffleStage("reduce", []*app.Stage{in}, 2, 64<<20, app.TaskSpec{ComputeSec: 0.5})
	d.SubmitJobAt(1.0, a, b.Build())
	d.FailNodeAt(2.5, 3)
	d.FailNodeAt(3.0, 5)
	d.Run()

	if rec.Count(trace.TaskRetry) == 0 {
		t.Fatal("fixture produced no retries; the regression is not exercised")
	}
	// The retry-blind pairing this test guards against: launches keyed by
	// task identity only, so a re-launch overwrites the first attempt.
	type key struct{ app, job, stage, task int }
	launched := map[key]float64{}
	blind := 0.0
	for _, e := range rec.Events {
		k := key{e.App, e.Job, e.Stage, e.Task}
		switch e.Kind {
		case trace.TaskLaunch:
			launched[k] = e.Time
		case trace.TaskFinish:
			if t0, ok := launched[k]; ok {
				blind += e.Time - t0
				delete(launched, k)
			}
		}
	}
	if got := rec.BusySlotSeconds(); got <= blind {
		t.Fatalf("BusySlotSeconds = %v, not above retry-blind pairing %v: killed attempts' occupancy dropped", got, blind)
	}
}

// TestBudgetInvariantThroughoutRun replays the execution trace and checks
// that no application ever holds more executors than its fair share σ at
// any point in time, under the dynamic managers.
func TestBudgetInvariantThroughoutRun(t *testing.T) {
	for _, mk := range []func() manager.Manager{custodyMgr, func() manager.Manager { return manager.NewYARN() }} {
		mgr := mk()
		rec := trace.NewRecorder()
		cfg := smallConfig(mgr)
		cfg.Tracer = rec
		spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 4, MeanInterarrival: 2, DatasetFiles: 2}
		if _, err := RunSchedule(cfg, workload.Generate(spec, xrand.New(29))); err != nil {
			t.Fatal(err)
		}
		share := 8 * 2 / 2 // nodes × executors / apps
		owner := map[int]int{}
		held := map[int]int{}
		for _, e := range rec.Events {
			switch e.Kind {
			case trace.ExecAlloc:
				if prev, ok := owner[e.Exec]; ok {
					held[prev]--
				}
				owner[e.Exec] = e.App
				held[e.App]++
				if held[e.App] > share {
					t.Fatalf("[%s] app %d held %d executors (> share %d) at t=%.2f",
						mgr.Name(), e.App, held[e.App], share, e.Time)
				}
			case trace.ExecRelease:
				if prev, ok := owner[e.Exec]; ok {
					held[prev]--
					delete(owner, e.Exec)
				}
			}
		}
	}
}

// TestRedirectRegeneratesRemainingBytes: a reduce task fetches from node X;
// the fabric last changed at t0 and X fails at t1 with no fabric event in
// between. The replacement local read must regenerate exactly the bytes
// the fetch had not delivered by t1, not its size as of t0.
func TestRedirectRegeneratesRemainingBytes(t *testing.T) {
	d, j := runReduceJob(t, 8, 4, 2)
	for i, pt := range j.Stages[0].Tasks {
		pt.RanOnNode = 1 + i
	}
	at := &attempt{task: j.Stages[1].Tasks[0], exec: d.Cluster().Node(0).Executors()[0]}
	d.running[at.task] = []*attempt{at}
	t0 := d.Engine().Now()
	d.startShuffleFetch(at)
	const victim = 2
	i := slices.IndexFunc(at.flows, func(f *netsim.Flow) bool { return f.Src() == victim })
	if i < 0 {
		t.Fatalf("no fetch from node %d", victim)
	}
	fetch := at.flows[i]

	t1 := t0 + 0.01 // well before the 16 MB fetch drains at 250 MB/s
	d.FailNodeAt(t1, victim)
	d.Engine().RunUntil(t1)
	repl := at.flows[i]
	if repl == fetch || repl.Src() != 0 || repl.Dst() != 0 {
		t.Fatalf("fetch from node %d not redirected to a local read on node 0", victim)
	}
	// Four sources, each alone on its 250 MB/s uplink: the fetch ran at
	// exactly that rate from t0 to t1.
	want := fetch.Bytes - 250e6*(t1-t0)
	if repl.Bytes != want || fetch.Remaining() != want {
		t.Fatalf("regenerated %v bytes (fetch remaining %v), want %v of %v", repl.Bytes, fetch.Remaining(), want, fetch.Bytes)
	}
}
