package driver

import (
	"testing"

	"repro/internal/trace"
)

// resilientDriver builds a small chaos-hardened driver with the failure-test
// workload submitted.
func resilientDriver(t *testing.T, tr trace.Tracer) (*Driver, int) {
	t.Helper()
	cfg := smallConfig(custodyMgr())
	cfg.EnableResilience()
	cfg.Tracer = tr
	sched := failureSchedule(13)
	d, err := NewScheduled(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	return d, len(sched.Subs)
}

// TestFailRecoverFailCycle is the regression test for repeated fail/recover
// cycles on the same node: the cycle must be idempotent per phase, jobs must
// still complete, and the invariants must hold at the end.
func TestFailRecoverFailCycle(t *testing.T) {
	rec := trace.NewRecorder()
	d, jobs := resilientDriver(t, rec)
	d.FailNodeAt(4, 2)
	d.RecoverNodeAt(10, 2)
	d.FailNodeAt(16, 2)
	d.RecoverNodeAt(22, 2)
	col := d.Run()
	if got := len(col.Jobs); got != jobs {
		t.Errorf("%d of %d jobs completed", got, jobs)
	}
	if got := rec.Count(trace.NodeFail); got != 2 {
		t.Errorf("NodeFail events = %d, want 2", got)
	}
	if got := rec.Count(trace.NodeRecover); got != 2 {
		t.Errorf("NodeRecover events = %d, want 2", got)
	}
	if err := d.Audit(); err != nil {
		t.Errorf("final audit: %v", err)
	}
}

// TestDoubleFailAndRecoverAreNoops: failing a dead node or recovering a
// healthy one must be absorbed with a fault-noop trace event, not crash or
// double-apply.
func TestDoubleFailAndRecoverAreNoops(t *testing.T) {
	rec := trace.NewRecorder()
	d, _ := resilientDriver(t, rec)
	d.RecoverNodeAt(3, 2) // recover of healthy node
	d.FailNodeAt(4, 2)
	d.FailNodeAt(5, 2) // double fail
	d.RecoverNodeAt(9, 2)
	d.Run()
	if got := rec.Count(trace.FaultNoop); got != 2 {
		t.Errorf("FaultNoop events = %d, want 2", got)
	}
	if got := rec.Count(trace.NodeFail); got != 1 {
		t.Errorf("NodeFail events = %d, want 1", got)
	}
	if err := d.Audit(); err != nil {
		t.Errorf("final audit: %v", err)
	}
}

// TestExecutorCrashRecovery: an executor dies mid-run and later rejoins; its
// tasks are retried, recovery times are recorded, and everything finishes.
func TestExecutorCrashRecovery(t *testing.T) {
	rec := trace.NewRecorder()
	d, jobs := resilientDriver(t, rec)
	d.eng.At(4, func() { d.InjectExecutorFail(3) })
	d.eng.At(12, func() { d.InjectExecutorRecover(3) })
	col := d.Run()
	if got := len(col.Jobs); got != jobs {
		t.Errorf("%d of %d jobs completed", got, jobs)
	}
	if rec.Count(trace.ExecFail) != 1 || rec.Count(trace.ExecRecover) != 1 {
		t.Errorf("exec fail/recover events = %d/%d, want 1/1",
			rec.Count(trace.ExecFail), rec.Count(trace.ExecRecover))
	}
	if col.TaskRetries == 0 {
		t.Error("executor crash caused no task retries")
	}
	if len(col.RecoverySec) == 0 {
		t.Error("no recovery times recorded")
	} else if col.MeanRecoverySec() <= 0 {
		t.Errorf("mean recovery %v, want > 0", col.MeanRecoverySec())
	}
	if err := d.Audit(); err != nil {
		t.Errorf("final audit: %v", err)
	}
}

// TestBlacklistExcludesFailingNode: three executor crashes on one node
// within 30 s exclude the node for the window; two crashes exclude nothing.
// The crash counts are literals so the test pins blacklistThreshold.
func TestBlacklistExcludesFailingNode(t *testing.T) {
	for _, crashes := range []int{2, 3} {
		rec := trace.NewRecorder()
		d, jobs := resilientDriver(t, rec)
		if d.cl.Executor(4).Node.ID != 2 || d.cl.Executor(5).Node.ID != 2 {
			t.Fatal("executors 4 and 5 are not both on node 2")
		}
		d.eng.At(4, func() { d.InjectExecutorFail(4) })
		d.eng.At(5, func() { d.InjectExecutorFail(5) })
		if crashes == 3 {
			d.eng.At(6, func() { d.InjectExecutorRecover(4) })
			d.eng.At(7, func() { d.InjectExecutorFail(4) })
		}
		d.eng.At(10, func() {
			d.InjectExecutorRecover(4)
			d.InjectExecutorRecover(5)
		})
		var during, after bool
		d.eng.At(8, func() { during = d.nodeExcluded(2, d.eng.Now()) })
		d.eng.At(7+blacklistWindowSec+1, func() { after = d.nodeExcluded(2, d.eng.Now()) })
		col := d.Run()
		if got := len(col.Jobs); got != jobs {
			t.Errorf("%d crashes: %d of %d jobs completed", crashes, got, jobs)
		}
		wantEvents := 0
		if crashes == 3 {
			wantEvents = 1
		}
		if col.BlacklistEvents != wantEvents {
			t.Errorf("%d crashes: %d blacklist events, want %d", crashes, col.BlacklistEvents, wantEvents)
		}
		if during != (wantEvents == 1) {
			t.Errorf("%d crashes: node 2 excluded = %v inside the window", crashes, during)
		}
		if after {
			t.Errorf("%d crashes: node 2 still excluded after the window", crashes)
		}
		if rec.Count(trace.NodeBlacklist) != col.BlacklistEvents {
			t.Errorf("NodeBlacklist events = %d, counter = %d",
				rec.Count(trace.NodeBlacklist), col.BlacklistEvents)
		}
		if err := d.Audit(); err != nil {
			t.Errorf("%d crashes: final audit: %v", crashes, err)
		}
	}
}

// TestReReplicationTracked: a permanent node failure triggers tracked
// re-replication flows that register replicas only on completion.
func TestReReplicationTracked(t *testing.T) {
	rec := trace.NewRecorder()
	d, jobs := resilientDriver(t, rec)
	d.FailNodeAt(5, 2)
	col := d.Run()
	if got := len(col.Jobs); got != jobs {
		t.Errorf("%d of %d jobs completed", got, jobs)
	}
	if col.ReplicasRestored == 0 {
		t.Error("no replicas restored after permanent node failure")
	}
	if got := rec.Count(trace.ReplicaRestored); got != col.ReplicasRestored {
		t.Errorf("ReplicaRestored events = %d, counter = %d", got, col.ReplicasRestored)
	}
	if ids := d.nn.PendingBlockIDs(); len(ids) != 0 {
		t.Errorf("%d blocks still have pending re-replications after the run", len(ids))
	}
	if err := d.Audit(); err != nil {
		t.Errorf("final audit: %v", err)
	}
}

// TestChaosOpsIdempotent: every fault operation absorbs a double apply and
// rejects a restore of untouched state.
func TestChaosOpsIdempotent(t *testing.T) {
	d, _ := resilientDriver(t, nil)
	checks := []struct {
		name           string
		apply, restore func() bool
	}{
		{"partition", func() bool { return d.InjectPartition([]int{0, 0, 0, 0, 1, 1, 1, 1}) }, d.HealPartition},
		{"link-degrade", func() bool { return d.InjectLinkDegrade(1, 0.1) }, func() bool { return d.RestoreLinks(1) }},
		{"slow-disk", func() bool { return d.InjectSlowDisk(1, 0.2) }, func() bool { return d.RestoreDisk(1) }},
		{"flaky-datanode", func() bool { return d.InjectDataNodeFlake(1) }, func() bool { return d.RestoreDataNode(1) }},
		{"stale-metadata", d.InjectStaleMetadata, d.RestoreMetadata},
		{"executor-crash", func() bool { return d.InjectExecutorFail(2) }, func() bool { return d.InjectExecutorRecover(2) }},
		{"node-flap", func() bool { return d.InjectNodeFail(4) }, func() bool { return d.InjectNodeRecover(4) }},
	}
	for _, c := range checks {
		if c.restore() {
			t.Errorf("%s: restore of untouched state reported applied", c.name)
		}
		if !c.apply() {
			t.Errorf("%s: first apply reported noop", c.name)
		}
		if c.apply() {
			t.Errorf("%s: double apply reported applied", c.name)
		}
		if !c.restore() {
			t.Errorf("%s: restore reported noop", c.name)
		}
		if c.restore() {
			t.Errorf("%s: double restore reported applied", c.name)
		}
	}
	d.Run()
	if err := d.Audit(); err != nil {
		t.Errorf("final audit: %v", err)
	}
}
