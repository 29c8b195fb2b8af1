package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// chaosDriver builds a small resilient cluster with a two-app Sort workload
// submitted, ready to run.
func chaosDriver(t *testing.T, mgr manager.Manager, seed uint64, tr trace.Tracer) (*driver.Driver, int) {
	t.Helper()
	jobsPerApp := 3
	if race.Enabled {
		jobsPerApp = 2 // the detector costs ~10×; keep the smoke inside timeouts
	}
	cfg := driver.DefaultConfig()
	cfg.Seed = seed
	cfg.Nodes = 8
	cfg.RackSize = 4
	cfg.BlockSize = 64 << 20
	cfg.Net = netsim.Config{UplinkBps: 250e6, DownlinkBps: 5e9, DiskBps: 400e6}
	cfg.Manager = mgr
	cfg.ExecutorStartupSec = 0
	cfg.ComputeNoise = 0
	cfg.EnableResilience()
	cfg.Tracer = tr
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: jobsPerApp, MeanInterarrival: 3, DatasetFiles: 2}
	sched := workload.Generate(spec, xrand.New(seed))
	d, err := driver.NewScheduled(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	return d, len(sched.Subs)
}

// runChaos plans all seven fault kinds, injects them with auditing, runs the
// simulation to completion, and returns the recorded trace and report.
func runChaos(t *testing.T, mgr manager.Manager, seed uint64) (*trace.Recorder, *Report, int, int) {
	t.Helper()
	rec := trace.NewRecorder()
	d, jobs := chaosDriver(t, mgr, seed, rec)
	rng := xrand.New(seed).Fork("chaos-plan")
	plan := Plan(DefaultProfile(), 40, 8, 16, rng)
	rep := Inject(d, plan, true)
	col := d.Run()
	if err := d.Audit(); err != nil {
		t.Errorf("final audit: %v", err)
	}
	return rec, rep, jobs, len(col.Jobs)
}

// TestChaosSmoke is the ci.sh chaos gate: every fault kind fires against a
// live workload with the invariant auditor on, no invariant breaks, and
// every job still completes.
func TestChaosSmoke(t *testing.T) {
	for _, mk := range []struct {
		name string
		mgr  manager.Manager
	}{
		{"custody", manager.NewCustody()},
		{"standalone", manager.NewStandalone(xrand.New(7), true)},
	} {
		t.Run(mk.name, func(t *testing.T) {
			_, rep, submitted, done := runChaos(t, mk.mgr, 11)
			if rep.Total != DefaultProfile().total() {
				t.Fatalf("plan has %d faults, want %d", rep.Total, DefaultProfile().total())
			}
			if rep.Applied != rep.Total {
				t.Errorf("only %d/%d faults applied (seed must exercise every kind)", rep.Applied, rep.Total)
			}
			if !rep.Ok() {
				t.Errorf("audit violations:\n%v", rep.Violations)
			}
			if rep.AuditRuns == 0 {
				t.Error("auditor never ran")
			}
			if done != submitted {
				t.Errorf("%d of %d jobs completed under chaos", done, submitted)
			}
		})
	}
}

// TestChaosDeterministic: two same-seed chaos runs must be byte-identical —
// same trace stream, same report.
func TestChaosDeterministic(t *testing.T) {
	rec1, rep1, _, done1 := runChaos(t, manager.NewCustody(), 11)
	rec2, rep2, _, done2 := runChaos(t, manager.NewCustody(), 11)
	var b1, b2 bytes.Buffer
	if err := rec1.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("same-seed chaos traces differ (%d vs %d bytes)", b1.Len(), b2.Len())
	}
	if rep1.Applied != rep2.Applied || rep1.Noops != rep2.Noops || done1 != done2 {
		t.Errorf("same-seed reports differ: %+v vs %+v", rep1, rep2)
	}
}

// TestPlanDeterministic: identical profile + rng stream → identical schedule,
// sorted by application time.
func TestPlanDeterministic(t *testing.T) {
	p := DefaultProfile().Scale(3)
	a := Plan(p, 100, 20, 40, xrand.New(5).Fork("chaos-plan"))
	b := Plan(p, 100, 20, 40, xrand.New(5).Fork("chaos-plan"))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed plans differ")
	}
	if len(a) != p.total() {
		t.Fatalf("plan has %d faults, want %d", len(a), p.total())
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("plan not sorted at %d: %v > %v", i, a[i-1].At, a[i].At)
		}
	}
	c := Plan(p, 100, 20, 40, xrand.New(6).Fork("chaos-plan"))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestProfileScale checks count scaling and the zero profile.
func TestProfileScale(t *testing.T) {
	p := DefaultProfile()
	if got := p.Scale(0).total(); got != 0 {
		t.Errorf("Scale(0) has %d faults, want 0", got)
	}
	if got := p.Scale(2).total(); got != 2*p.total() {
		t.Errorf("Scale(2) has %d faults, want %d", got, 2*p.total())
	}
	if got := len(Plan(p.Scale(0), 100, 8, 16, xrand.New(1))); got != 0 {
		t.Errorf("zero profile planned %d faults", got)
	}
}

// TestPartitionGroups checks group shape bounds.
func TestPartitionGroups(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{2, 5, 40} {
		g := partitionGroups(n, 0.25, rng)
		if len(g) != n {
			t.Fatalf("groups len %d, want %d", len(g), n)
		}
		ones := 0
		for _, v := range g {
			ones += v
		}
		if ones < 1 || ones > n-1 {
			t.Errorf("partition of %d nodes isolated %d", n, ones)
		}
	}
}
