package bench

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/chaos"
	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// gridSpec shapes a figure-style sweep: every workload kind × cluster size ×
// manager, one simulation per cell, all cells of a kind sharing one
// submission schedule as the paper's methodology does.
type gridSpec struct {
	sizes      []int
	jobsPerApp int
	chaos      bool // resilience on and DefaultProfile().Scale(4) faults injected
}

// paperGrid is the Fig. 7–10 quick grid.
func paperGrid(tiny bool) gridSpec {
	if tiny {
		return gridSpec{sizes: []int{10}, jobsPerApp: 1}
	}
	return gridSpec{sizes: []int{25, 50, 100}, jobsPerApp: 6}
}

// chaosGrid runs the kinds on 50 nodes under a dense mixed-fault plan.
func chaosGrid(tiny bool) gridSpec {
	if tiny {
		return gridSpec{sizes: []int{10}, jobsPerApp: 1, chaos: true}
	}
	return gridSpec{sizes: []int{50}, jobsPerApp: 12, chaos: true}
}

var gridManagers = []string{"spark", "custody"}

// gridScheduleSeed fixes the submission schedules: input sizes, arrival
// times and file popularity. Drawn from the run's seed they would change a
// cell's work by up to 2× and the grid's throughput by 20% from seed to
// seed. The run's seed drives everything else: block placement, compute
// noise, the baseline manager's executor draw and the chaos plan.
const gridScheduleSeed = 1

// cell is one set-up simulation awaiting Run.
type cell struct {
	kind workload.Kind
	size int
	mgr  string
	d    *driver.Driver
	jobs int
	rep  *chaos.Report
}

type gridInstance struct {
	cells []*cell
	tr    *tracer
}

func gridSetup(sp gridSpec, seed uint64) setupFunc {
	return func(tr *tracer) (instance, error) {
		g := &gridInstance{tr: tr}
		for _, kind := range workload.Kinds() {
			spec := workload.DefaultSpec(kind)
			spec.JobsPerApp = sp.jobsPerApp
			sched := workload.Generate(spec, xrand.New(gridScheduleSeed))
			for _, size := range sp.sizes {
				for _, mk := range gridManagers {
					c, err := newCell(sp, seed, sched, size, mk, tr)
					if err != nil {
						return nil, err
					}
					g.cells = append(g.cells, c)
				}
			}
		}
		return g, nil
	}
}

func newCell(sp gridSpec, seed uint64, sched workload.Schedule, size int, mk string, tr *tracer) (*cell, error) {
	cfg := driver.DefaultConfig()
	cfg.Seed = seed
	cfg.Nodes = size
	cfg.RackSize = max(size/5, 1)
	if sp.chaos {
		cfg.EnableResilience()
	}
	var m manager.Manager
	if mk == "spark" {
		m = manager.NewStandalone(xrand.New(seed), false)
	} else {
		c := manager.NewCustody()
		if tr != nil {
			c.Policy = newTracedPolicy(tr)
		}
		m = c
	}
	if tr != nil {
		m = wrapManager(m, tr)
	}
	cfg.Manager = m
	d := driver.New(cfg)
	files := make([]*hdfs.File, len(sched.Files))
	for i, fs := range sched.Files {
		f, err := d.CreateInput(fs.Name, fs.Size)
		if err != nil {
			return nil, fmt.Errorf("%s/%d/%s: create %s: %w", sched.Spec.Kind, size, mk, fs.Name, err)
		}
		files[i] = f
	}
	apps := make([]*app.Application, sched.Spec.Apps)
	for i := range apps {
		apps[i] = d.RegisterApp(fmt.Sprintf("%s-app%d", sched.Spec.Kind, i))
	}
	d.Start()
	for i, sub := range sched.Subs {
		d.SubmitJobAt(sub.At, apps[sub.App], workload.BuildJob(sched.Spec.Kind, i+1, files[sub.FileIdx]))
	}
	c := &cell{kind: sched.Spec.Kind, size: size, mgr: mk, d: d, jobs: len(sched.Subs)}
	if sp.chaos {
		plan := chaos.Plan(chaos.DefaultProfile().Scale(4), sched.Horizon(), cfg.Nodes,
			cfg.Nodes*cfg.ExecutorsPerNode, xrand.New(gridScheduleSeed).Fork("chaos-plan"))
		c.rep = chaos.Inject(d, plan, true)
	}
	return c, nil
}

// gridChunk is the number of simulation events one latency sample covers.
const gridChunk = 200

// run simulates every cell. The simulation advances in chunks of gridChunk
// events (Engine.Step, exactly what Driver.Run loops over), each one
// latency sample; completed tasks count towards throughput.
func (g *gridInstance) run(m *meter) error {
	for i, c := range g.cells {
		name := fmt.Sprintf("%s/%d/%s", c.kind, c.size, c.mgr)
		if g.tr != nil {
			g.tr.unit = i
		}
		if err := simulate(c.d, m, g.tr); err != nil {
			m.check(false, "%s: %v", name, err)
			continue
		}
		col := c.d.Collector()
		m.work += float64(len(col.Tasks))
		m.check(len(col.Jobs) == c.jobs, "%s: %d of %d jobs finished", name, len(col.Jobs), c.jobs)
		aerr := c.d.Audit()
		m.check(aerr == nil, "%s: audit: %v", name, aerr)
		if c.rep != nil {
			m.check(c.rep.Ok(), "%s: %d chaos audit violations, first: %v", name, len(c.rep.Violations), c.rep.Violations)
		}
		m.dig.str(name)
		m.dig.int(len(col.Jobs))
		for _, x := range col.LocalityPerJob() {
			m.dig.float(x)
		}
		for _, x := range col.JobCompletionTimes() {
			m.dig.float(x)
		}
		eng, fab := c.d.Engine(), c.d.Fabric()
		m.counts["event.events_run"] += float64(eng.Executed())
		m.counts["netsim.flows_completed"] += float64(fab.CompletedFlows)
		m.counts["netsim.gb_moved"] += fab.TotalBytesMoved / 1e9
		m.counts["driver.tasks_completed"] += float64(len(col.Tasks))
		m.counts["driver.task_retries"] += float64(col.TaskRetries)
		m.counts["driver.attempt_failures"] += float64(col.AttemptFailures)
		m.counts["manager.reallocations"] += float64(col.Reallocations)
		m.counts["manager.migrations"] += float64(col.ExecutorMigrations)
		if g.tr == nil {
			// Live heap with this cell's simulation still reachable; the
			// traced unit skips the forced collections.
			m.heapMB = max(m.heapMB, liveHeapMB())
		}
		c.d = nil
	}
	return nil
}

// simulate runs one cell to completion, then lets Driver.Run check the
// cluster's invariants. The driver's invariant panics become an error.
func simulate(d *driver.Driver, m *meter, tr *tracer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	eng := d.Engine()
	for n := gridChunk; n == gridChunk; {
		t := m.start()
		id := tr.begin("event.Step")
		for n = 0; n < gridChunk && eng.Step(); n++ {
		}
		tr.end(id)
		ms := m.stop(t)
		if n == gridChunk {
			m.lat = append(m.lat, ms) // a short last chunk is timed but not a sample
		}
	}
	d.Run()
	return nil
}

func (g *gridInstance) close() error { return nil }
