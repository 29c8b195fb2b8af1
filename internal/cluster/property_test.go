package cluster

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// TestValidateUnderChurn is a property-style test: no interleaving of
// FailNode / RecoverNode / FailExecutor / RecoverExecutor / Allocate /
// Release / StartTask / FinishTask may ever break Validate's invariants.
func TestValidateUnderChurn(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := xrand.New(seed).Fork("cluster-churn")
		c := New(Config{Nodes: 8, ExecutorsPerNode: 2, SlotsPerExecutor: 2, RackSize: 4})
		apps := []AppID{1, 2, 3}
		for step := 0; step < 2000; step++ {
			switch rng.Intn(8) {
			case 0: // fail a node
				c.FailNode(rng.Intn(c.NumNodes()))
			case 1: // recover a node
				c.RecoverNode(rng.Intn(c.NumNodes()))
			case 2: // crash one executor
				c.FailExecutor(c.Executor(rng.Intn(c.TotalExecutors())))
			case 3: // restart one executor
				c.RecoverExecutor(c.Executor(rng.Intn(c.TotalExecutors())))
			case 4: // allocate a free executor
				if free := c.Free(); len(free) > 0 {
					e := free[rng.Intn(len(free))]
					if err := c.Allocate(e, apps[rng.Intn(len(apps))]); err != nil {
						t.Fatalf("seed %d step %d: Allocate free executor: %v", seed, step, err)
					}
				}
			case 5: // release an idle owned executor
				if owned := c.Owned(apps[rng.Intn(len(apps))]); len(owned) > 0 {
					e := owned[rng.Intn(len(owned))]
					if e.Running() == 0 {
						if err := c.Release(e); err != nil {
							t.Fatalf("seed %d step %d: Release idle executor: %v", seed, step, err)
						}
					}
				}
			case 6: // start a task on an owned executor with a free slot
				if owned := c.Owned(apps[rng.Intn(len(apps))]); len(owned) > 0 {
					e := owned[rng.Intn(len(owned))]
					if !e.Busy() {
						if err := c.StartTask(e); err != nil {
							t.Fatalf("seed %d step %d: StartTask: %v", seed, step, err)
						}
					}
				}
			case 7: // finish a running task
				if owned := c.Owned(apps[rng.Intn(len(apps))]); len(owned) > 0 {
					e := owned[rng.Intn(len(owned))]
					if e.Running() > 0 {
						if err := c.FinishTask(e); err != nil {
							t.Fatalf("seed %d step %d: FinishTask: %v", seed, step, err)
						}
					}
				}
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d step %d: Validate: %v", seed, step, err)
			}
			// The owned index answers exactly what a scan answers: for
			// every app, for one never allocated (0) and for NoApp.
			for _, app := range append([]AppID{0, NoApp}, apps...) {
				var want []*Executor
				for _, e := range c.Executors() {
					if e.Owner() == app {
						want = append(want, e)
					}
				}
				prefix := []*Executor{c.Executor(0)}
				got := c.AppendOwned(prefix, app)
				if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
					t.Fatalf("seed %d step %d: AppendOwned(app %d) = %v, scan = %v", seed, step, app, got[1:], want)
				}
				if n := c.OwnedCount(app); n != len(want) {
					t.Fatalf("seed %d step %d: OwnedCount(app %d) = %d, scan = %d", seed, step, app, n, len(want))
				}
			}
		}
	}
}

func TestFailExecutor(t *testing.T) {
	c := New(Config{Nodes: 2, ExecutorsPerNode: 2})
	e := c.Executor(0)
	if err := c.Allocate(e, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.StartTask(e); err != nil {
		t.Fatal(err)
	}
	if !c.FailExecutor(e) {
		t.Fatal("FailExecutor on a live executor returned false")
	}
	if c.FailExecutor(e) {
		t.Fatal("double FailExecutor returned true")
	}
	if e.Alive() || e.Owner() != NoApp || e.Running() != 0 {
		t.Fatalf("failed executor state: alive=%v owner=%d running=%d", e.Alive(), e.Owner(), e.Running())
	}
	if !c.NodeAlive(0) {
		t.Fatal("node reported down with a sibling executor still alive")
	}
	if err := c.Allocate(e, 7); err == nil {
		t.Fatal("Allocate on a dead executor succeeded")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.RecoverExecutor(e) {
		t.Fatal("RecoverExecutor on a dead executor returned false")
	}
	if c.RecoverExecutor(e) {
		t.Fatal("RecoverExecutor on a live executor returned true")
	}
	if err := c.Allocate(e, 7); err != nil {
		t.Fatalf("Allocate after recovery: %v", err)
	}
}

func TestNodeAlive(t *testing.T) {
	c := New(Config{Nodes: 2, ExecutorsPerNode: 2})
	if !c.NodeAlive(0) {
		t.Fatal("fresh node reported down")
	}
	c.FailExecutor(c.Node(0).Executors()[0])
	if !c.NodeAlive(0) {
		t.Fatal("node down after one of two executors crashed")
	}
	c.FailExecutor(c.Node(0).Executors()[1])
	if c.NodeAlive(0) {
		t.Fatal("node alive with every executor dead")
	}
	c.FailNode(1)
	if c.NodeAlive(1) {
		t.Fatal("failed node reported alive")
	}
	c.RecoverNode(1)
	if !c.NodeAlive(1) {
		t.Fatal("recovered node reported down")
	}
}
