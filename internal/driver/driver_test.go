package driver

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// smallConfig returns a fast configuration for unit tests.
func smallConfig(mgr manager.Manager) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.RackSize = 4
	cfg.BlockSize = 64 << 20
	cfg.Net = netsim.Config{UplinkBps: 250e6, DownlinkBps: 5e9, DiskBps: 400e6}
	cfg.Manager = mgr
	cfg.ExecutorStartupSec = 0
	cfg.ComputeNoise = 0
	return cfg
}

func custodyMgr() manager.Manager { return manager.NewCustody() }

func standaloneMgr() manager.Manager {
	return manager.NewStandalone(xrand.New(7), true)
}

// submitOneJob runs a single two-stage job and returns the driver.
func runOneJob(t *testing.T, mgr manager.Manager) *Driver {
	t.Helper()
	d := New(smallConfig(mgr))
	f, err := d.CreateInput("in", 256<<20) // 4 blocks
	if err != nil {
		t.Fatal(err)
	}
	a := d.RegisterApp("test")
	d.Start()
	b := app.NewJob(1, "Sort", "in")
	in := b.AddInputStage("map", f.Blocks, app.TaskSpec{ComputeSec: 1, OutputBytes: 32 << 20})
	b.AddShuffleStage("reduce", []*app.Stage{in}, 2, 64<<20, app.TaskSpec{ComputeSec: 0.5})
	d.SubmitJobAt(1.0, a, b.Build())
	d.Run()
	return d
}

// TestDefaultConfigMatchesPaper: the paper's testbed (§VI-A1) has 100
// nodes with two executors each.
func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Manager = custodyMgr()
	c := New(cfg).Cluster()
	if c.NumNodes() != 100 {
		t.Fatalf("paper cluster has 100 nodes, got %d", c.NumNodes())
	}
	if c.TotalExecutors() != 200 {
		t.Fatalf("paper cluster has 200 executors (2/node), got %d", c.TotalExecutors())
	}
}

func TestSingleJobCompletesCustody(t *testing.T) {
	d := runOneJob(t, custodyMgr())
	col := d.Collector()
	if len(col.Jobs) != 1 {
		t.Fatalf("finished jobs = %d, want 1", len(col.Jobs))
	}
	j := col.Jobs[0]
	if j.Submit != 1.0 {
		t.Fatalf("submit = %v", j.Submit)
	}
	if j.Finish <= j.Submit {
		t.Fatalf("finish %v <= submit %v", j.Finish, j.Submit)
	}
	if j.TotalInput != 4 {
		t.Fatalf("input tasks = %d, want 4", j.TotalInput)
	}
	if j.InputStageSec <= 0 || j.InputStageSec > j.CompletionSec() {
		t.Fatalf("input stage sec = %v (JCT %v)", j.InputStageSec, j.CompletionSec())
	}
	// 4 map + 2 reduce tasks.
	if len(col.Tasks) != 6 {
		t.Fatalf("task records = %d, want 6", len(col.Tasks))
	}
}

func TestSingleJobCompletesStandalone(t *testing.T) {
	d := runOneJob(t, standaloneMgr())
	if len(d.Collector().Jobs) != 1 {
		t.Fatalf("finished jobs = %d", len(d.Collector().Jobs))
	}
}

func TestSingleJobCompletesOffer(t *testing.T) {
	d := runOneJob(t, manager.NewOffer())
	if len(d.Collector().Jobs) != 1 {
		t.Fatalf("finished jobs = %d", len(d.Collector().Jobs))
	}
}

func TestCustodyAchievesPerfectLocalityUncontended(t *testing.T) {
	d := runOneJob(t, custodyMgr())
	col := d.Collector()
	// One app alone in an 8-node cluster with 3 replicas per block: Custody
	// must place all four input tasks locally.
	if got := col.PctLocalTasks(); got != 1.0 {
		t.Fatalf("custody locality = %v, want 1.0", got)
	}
	if !col.Jobs[0].Perfect() {
		t.Fatal("job not perfectly local")
	}
}

func TestSchedulerDelayNonNegative(t *testing.T) {
	d := runOneJob(t, custodyMgr())
	for _, tr := range d.Collector().Tasks {
		if tr.SchedulerDelay < 0 {
			t.Fatalf("negative scheduler delay: %+v", tr)
		}
		if tr.Duration <= 0 {
			t.Fatalf("non-positive duration: %+v", tr)
		}
	}
}

func TestAllExecutorsIdleAfterRun(t *testing.T) {
	for _, mgr := range []manager.Manager{custodyMgr(), standaloneMgr(), manager.NewOffer()} {
		d := runOneJob(t, mgr)
		for _, e := range d.Cluster().Executors() {
			if e.Running() != 0 {
				t.Fatalf("[%s] executor %d still running after completion", mgr.Name(), e.ID)
			}
		}
	}
}

func TestMultiJobMultiAppSchedule(t *testing.T) {
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 3, MeanInterarrival: 2, DatasetFiles: 3}
	sched := workload.Generate(spec, xrand.New(11))
	for _, mgr := range []manager.Manager{custodyMgr(), standaloneMgr(), manager.NewOffer()} {
		cfg := smallConfig(mgr)
		cfg.BlockSize = 128 << 20
		col, err := RunSchedule(cfg, sched)
		if err != nil {
			t.Fatalf("[%s] %v", mgr.Name(), err)
		}
		if len(col.Jobs) != 6 {
			t.Fatalf("[%s] finished %d jobs, want 6", mgr.Name(), len(col.Jobs))
		}
		for _, j := range col.Jobs {
			if j.Finish < j.Submit {
				t.Fatalf("[%s] job finished before submit: %+v", mgr.Name(), j)
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	spec := workload.Spec{Kind: workload.WordCount, Apps: 2, JobsPerApp: 2, MeanInterarrival: 2, DatasetFiles: 2}
	sched := workload.Generate(spec, xrand.New(5))
	run := func() []float64 {
		col, err := RunSchedule(smallConfig(custodyMgr()), sched)
		if err != nil {
			t.Fatal(err)
		}
		return col.JobCompletionTimes()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different job counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at job %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCustodyBeatsStandaloneOnLocality(t *testing.T) {
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 4, MeanInterarrival: 3, DatasetFiles: 4}
	sched := workload.Generate(spec, xrand.New(23))
	colC, err := RunSchedule(smallConfig(custodyMgr()), sched)
	if err != nil {
		t.Fatal(err)
	}
	colS, err := RunSchedule(smallConfig(standaloneMgr()), sched)
	if err != nil {
		t.Fatal(err)
	}
	if colC.PctLocalTasks() < colS.PctLocalTasks() {
		t.Fatalf("custody locality %.3f < standalone %.3f",
			colC.PctLocalTasks(), colS.PctLocalTasks())
	}
}

func TestSpeculationCompletesAndHelps(t *testing.T) {
	cfg := smallConfig(custodyMgr())
	cfg.Speculation = true
	cfg.ComputeNoise = 0.4
	spec := workload.Spec{Kind: workload.Sort, Apps: 1, JobsPerApp: 2, MeanInterarrival: 5, DatasetFiles: 1}
	sched := workload.Generate(spec, xrand.New(3))
	col, err := RunSchedule(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Jobs) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(col.Jobs))
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err == nil {
		t.Fatal("nil manager accepted")
	}
	cfg.Manager = custodyMgr()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("0 nodes accepted")
	}
	bad = cfg
	bad.Scheduler = "bogus"
	if err := bad.Validate(); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

func TestFIFOSchedulerRuns(t *testing.T) {
	cfg := smallConfig(custodyMgr())
	cfg.Scheduler = SchedFIFO
	spec := workload.Spec{Kind: workload.WordCount, Apps: 1, JobsPerApp: 2, MeanInterarrival: 3, DatasetFiles: 1}
	col, err := RunSchedule(cfg, workload.Generate(spec, xrand.New(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(col.Jobs))
	}
}

func TestLocalityHardSchedulerRuns(t *testing.T) {
	cfg := smallConfig(custodyMgr())
	cfg.Scheduler = SchedLocalityHard
	spec := workload.Spec{Kind: workload.WordCount, Apps: 1, JobsPerApp: 2, MeanInterarrival: 3, DatasetFiles: 1}
	col, err := RunSchedule(cfg, workload.Generate(spec, xrand.New(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(col.Jobs))
	}
	// Hard constraints: every input task with replicas must be local.
	for _, tr := range col.Tasks {
		if tr.Input && !tr.Local {
			t.Fatalf("locality-hard ran a non-local input task: %+v", tr)
		}
	}
}

func TestOfferManagerCountsRejections(t *testing.T) {
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 3, MeanInterarrival: 2, DatasetFiles: 2}
	sched := workload.Generate(spec, xrand.New(31))
	col, err := RunSchedule(smallConfig(manager.NewOffer()), sched)
	if err != nil {
		t.Fatal(err)
	}
	if col.OfferRejections == 0 {
		t.Log("no offer rejections observed (acceptable on tiny clusters)")
	}
	if len(col.Jobs) != 6 {
		t.Fatalf("jobs = %d, want 6", len(col.Jobs))
	}
}

func TestExecutorStartupDelaysLaunch(t *testing.T) {
	cfg := smallConfig(custodyMgr())
	cfg.ExecutorStartupSec = 2.0
	d := New(cfg)
	f, _ := d.CreateInput("in", 64<<20)
	a := d.RegisterApp("x")
	d.Start()
	b := app.NewJob(1, "WordCount", "in")
	b.AddInputStage("map", f.Blocks, app.TaskSpec{ComputeSec: 0.1})
	d.SubmitJobAt(1.0, a, b.Build())
	col := d.Run()
	if len(col.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(col.Tasks))
	}
	if col.Tasks[0].SchedulerDelay < 2.0 {
		t.Fatalf("scheduler delay %v < startup 2.0", col.Tasks[0].SchedulerDelay)
	}
}

// TestShuffleVolumeConservation checks that the bytes moved through the
// fabric match the job's data plan: the whole input is read once and each
// reduce task fetches its share of the map outputs.
func TestShuffleVolumeConservation(t *testing.T) {
	d := runOneJob(t, custodyMgr())
	// runOneJob: 4 input blocks × 64 MB = 256 MB read; 4 maps × 32 MB
	// output = 128 MB shuffled to 2 reduces.
	want := float64(256<<20 + 128<<20)
	got := d.fabric.TotalBytesMoved
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("bytes moved = %.0f, want ≈ %.0f", got, want)
	}
}

// TestReadTimesReflectLocality: local input reads must be faster than
// remote ones on an otherwise idle cluster.
func TestReadTimesReflectLocality(t *testing.T) {
	cfg := smallConfig(standaloneMgr())
	spec := workload.Spec{Kind: workload.WordCount, Apps: 2, JobsPerApp: 4, MeanInterarrival: 2, DatasetFiles: 2}
	col, err := RunSchedule(cfg, workload.Generate(spec, xrand.New(41)))
	if err != nil {
		t.Fatal(err)
	}
	var localReads, remoteReads []float64
	for _, tr := range col.Tasks {
		if !tr.Input {
			continue
		}
		if tr.Local {
			localReads = append(localReads, tr.ReadSec)
		} else {
			remoteReads = append(remoteReads, tr.ReadSec)
		}
	}
	if len(localReads) == 0 || len(remoteReads) == 0 {
		t.Skip("no mix of local and remote reads in this run")
	}
	ml := mean(localReads)
	mr := mean(remoteReads)
	if ml >= mr {
		t.Fatalf("local reads (%.3fs) not faster than remote (%.3fs)", ml, mr)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

// TestEveryTaskRunsExactlyOnce (without speculation): task records must be
// unique per (app, job, stage, index).
func TestEveryTaskRunsExactlyOnce(t *testing.T) {
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 4, MeanInterarrival: 2, DatasetFiles: 2}
	col, err := RunSchedule(smallConfig(custodyMgr()), workload.Generate(spec, xrand.New(43)))
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ a, j, s, i int }
	seen := map[key]bool{}
	for _, tr := range col.Tasks {
		k := key{tr.App, tr.Job, tr.Stage, tr.Index}
		if seen[k] {
			t.Fatalf("task %+v recorded twice", k)
		}
		seen[k] = true
	}
}

func TestReplicaSelectionConfig(t *testing.T) {
	for _, sel := range []hdfs.ReplicaSelector{
		hdfs.RandomSelector{}, hdfs.ClosestSelector{}, hdfs.NewLeastLoadedSelector(),
	} {
		cfg := smallConfig(standaloneMgr())
		cfg.ReplicaSelection = sel
		spec := workload.Spec{Kind: workload.WordCount, Apps: 2, JobsPerApp: 2, MeanInterarrival: 2, DatasetFiles: 1}
		col, err := RunSchedule(cfg, workload.Generate(spec, xrand.New(6)))
		if err != nil {
			t.Fatalf("[%s] %v", sel.Name(), err)
		}
		if len(col.Jobs) != 4 {
			t.Fatalf("[%s] jobs = %d", sel.Name(), len(col.Jobs))
		}
	}
}

// TestShuffleFetchOnePass: a reduce task's k fetch flows start in one fabric
// batch, so they cost one rate recompute, not k.
func TestShuffleFetchOnePass(t *testing.T) {
	d := New(smallConfig(custodyMgr()))
	f, err := d.CreateInput("in", 256<<20) // 4 blocks
	if err != nil {
		t.Fatal(err)
	}
	a := d.RegisterApp("test")
	d.Start()
	b := app.NewJob(1, "Sort", "in")
	in := b.AddInputStage("map", f.Blocks, app.TaskSpec{ComputeSec: 1, OutputBytes: 32 << 20})
	b.AddShuffleStage("reduce", []*app.Stage{in}, 2, 64<<20, app.TaskSpec{ComputeSec: 0.5})
	j := b.Build()
	d.SubmitJobAt(1.0, a, j)
	d.Run()

	// Re-fetch one reduce partition from four distinct map nodes into an
	// executor on a fifth.
	for i, pt := range j.Stages[0].Tasks {
		pt.RanOnNode = 1 + i
	}
	var exec *cluster.Executor
	for _, e := range d.Cluster().Executors() {
		if e.Node.ID == 0 {
			exec = e
			break
		}
	}
	at := &attempt{task: j.Stages[1].Tasks[0], exec: exec}
	before := d.Fabric().Reallocations
	d.startShuffleFetch(at)
	if len(at.flows) != 4 {
		t.Fatalf("%d fetch flows, want 4", len(at.flows))
	}
	if got := d.Fabric().Reallocations - before; got != 1 {
		t.Fatalf("4 fetches cost %d rate recomputes, want 1", got)
	}
}
