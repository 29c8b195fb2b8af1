package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func small() *Cluster {
	return New(Config{Nodes: 4, ExecutorsPerNode: 2, SlotsPerExecutor: 1, RackSize: 2})
}

func TestConstruction(t *testing.T) {
	c := small()
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.TotalExecutors() != 8 {
		t.Fatalf("TotalExecutors = %d", c.TotalExecutors())
	}
	for i, n := range c.Nodes() {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		if len(n.Executors()) != 2 {
			t.Fatalf("node %d has %d executors", i, len(n.Executors()))
		}
		wantRack := i / 2
		if n.Rack != wantRack {
			t.Fatalf("node %d rack %d, want %d", i, n.Rack, wantRack)
		}
	}
	for i, e := range c.Executors() {
		if e.ID != i {
			t.Fatalf("executor %d has ID %d", i, e.ID)
		}
		if e.Owner() != NoApp {
			t.Fatalf("fresh executor owned by %d", e.Owner())
		}
	}
}

func TestAllocateRelease(t *testing.T) {
	c := small()
	e := c.Executor(0)
	if err := c.Allocate(e, 1); err != nil {
		t.Fatal(err)
	}
	if e.Owner() != 1 {
		t.Fatalf("Owner = %d", e.Owner())
	}
	if err := c.Allocate(e, 2); err == nil {
		t.Fatal("double allocation succeeded")
	}
	if err := c.Allocate(c.Executor(1), NoApp); err == nil {
		t.Fatal("allocation to NoApp succeeded")
	}
	if err := c.Allocate(c.Executor(1), -2); err == nil {
		t.Fatal("allocation to a negative app succeeded")
	}
	if err := c.Release(e); err != nil {
		t.Fatal(err)
	}
	if e.Owner() != NoApp {
		t.Fatal("executor still owned after Release")
	}
	if err := c.Release(e); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestReleaseBusyFails(t *testing.T) {
	c := small()
	e := c.Executor(0)
	c.Allocate(e, 1)
	c.StartTask(e)
	if err := c.Release(e); err == nil {
		t.Fatal("released an executor with a running task")
	}
	c.FinishTask(e)
	if err := c.Release(e); err != nil {
		t.Fatal(err)
	}
}

func TestTaskLifecycle(t *testing.T) {
	c := small()
	e := c.Executor(3)
	if err := c.StartTask(e); err == nil {
		t.Fatal("StartTask on unallocated executor succeeded")
	}
	c.Allocate(e, 7)
	if e.Busy() {
		t.Fatal("idle executor reports Busy")
	}
	if err := c.StartTask(e); err != nil {
		t.Fatal(err)
	}
	if !e.Busy() || e.Running() != 1 || e.FreeSlots() != 0 {
		t.Fatalf("after StartTask: busy=%v running=%d free=%d", e.Busy(), e.Running(), e.FreeSlots())
	}
	if err := c.StartTask(e); err == nil {
		t.Fatal("second StartTask on single-slot executor succeeded")
	}
	if err := c.FinishTask(e); err != nil {
		t.Fatal(err)
	}
	if err := c.FinishTask(e); err == nil {
		t.Fatal("FinishTask on idle executor succeeded")
	}
}

func TestMultiSlotExecutor(t *testing.T) {
	c := New(Config{Nodes: 1, ExecutorsPerNode: 1, SlotsPerExecutor: 3})
	e := c.Executor(0)
	c.Allocate(e, 1)
	for i := 0; i < 3; i++ {
		if err := c.StartTask(e); err != nil {
			t.Fatalf("StartTask %d: %v", i, err)
		}
	}
	if err := c.StartTask(e); err == nil {
		t.Fatal("4th task on 3-slot executor succeeded")
	}
}

func TestOwnedAndFree(t *testing.T) {
	c := small()
	c.Allocate(c.Executor(0), 1)
	c.Allocate(c.Executor(3), 1)
	c.Allocate(c.Executor(5), 2)
	if got := len(c.Owned(1)); got != 2 {
		t.Fatalf("Owned(1) = %d", got)
	}
	if got := c.OwnedCount(2); got != 1 {
		t.Fatalf("OwnedCount(2) = %d", got)
	}
	if got := len(c.Free()); got != 5 {
		t.Fatalf("Free = %d", got)
	}
}

func TestFreeOnNode(t *testing.T) {
	c := small()
	c.Allocate(c.Executor(0), 1) // node 0 has executors 0,1
	free := c.FreeOnNode(0)
	if len(free) != 1 || free[0].ID != 1 {
		t.Fatalf("FreeOnNode(0) = %v", free)
	}
}

func TestValidate(t *testing.T) {
	c := small()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	e := c.Executor(0)
	c.Allocate(e, 1)
	c.StartTask(e)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	e.running = 5 // corrupt
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted state")
	}
}

// TestValidateCatchesStaleOwnedIndex: an owner change that bypasses the
// owned index, in either direction, fails Validate.
func TestValidateCatchesStaleOwnedIndex(t *testing.T) {
	c := small()
	e := c.Executor(2)
	if err := c.Allocate(e, 1); err != nil {
		t.Fatal(err)
	}
	e.owner = NoApp // still listed under app 1
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted an index entry with no owner")
	}
	e.owner = 1
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Executor(4).owner = 1 // owned but not listed
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted an owned executor missing from the index")
	}
}

// Property: random allocate/release/start/finish sequences preserve
// invariants and accounting.
func TestQuickLifecycle(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		rng := xrand.New(seed)
		c := New(Config{Nodes: 3, ExecutorsPerNode: 2})
		owned := map[int]AppID{}
		running := map[int]int{}
		for _, op := range ops {
			id := rng.Intn(6)
			e := c.Executor(id)
			switch op % 4 {
			case 0: // allocate
				app := AppID(rng.Intn(3))
				err := c.Allocate(e, app)
				if (owned[id] != 0) == (err == nil) && owned[id] != 0 {
					return false
				}
				if err == nil {
					owned[id] = app + 1 // store shifted to distinguish zero
				}
			case 1: // release
				err := c.Release(e)
				wantOK := owned[id] != 0 && running[id] == 0
				if wantOK != (err == nil) {
					return false
				}
				if err == nil {
					delete(owned, id)
				}
			case 2: // start
				err := c.StartTask(e)
				wantOK := owned[id] != 0 && running[id] < 1
				if wantOK != (err == nil) {
					return false
				}
				if err == nil {
					running[id]++
				}
			case 3: // finish
				err := c.FinishTask(e)
				wantOK := running[id] > 0
				if wantOK != (err == nil) {
					return false
				}
				if err == nil {
					running[id]--
				}
			}
			if c.Validate() != nil {
				return false
			}
		}
		// Cross-check ownership view.
		for id, app := range owned {
			if c.Executor(id).Owner() != AppID(app-1) {
				return false
			}
		}
		return len(c.Free())+lenOwnedAll(c) == 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func lenOwnedAll(c *Cluster) int {
	n := 0
	for _, e := range c.Executors() {
		if e.Owner() != NoApp {
			n++
		}
	}
	return n
}

func TestFailNode(t *testing.T) {
	c := small()
	e0 := c.Node(0).Executors()[0]
	e1 := c.Node(0).Executors()[1]
	c.Allocate(e0, 1)
	c.StartTask(e0)
	c.Allocate(e1, 2)

	interrupted := c.FailNode(0)
	if len(interrupted) != 1 || interrupted[0] != e0 {
		t.Fatalf("interrupted = %v, want [e0]", interrupted)
	}
	for _, e := range c.Node(0).Executors() {
		if e.Alive() || e.Owner() != NoApp || e.Running() != 0 {
			t.Fatalf("executor %d not fully failed: %+v", e.ID, e)
		}
	}
	// Dead executors refuse allocation and are invisible to Free.
	if err := c.Allocate(e0, 1); err == nil {
		t.Fatal("allocated a dead executor")
	}
	for _, e := range c.Free() {
		if e.Node.ID == 0 {
			t.Fatal("Free returned a dead executor")
		}
	}
	if len(c.FreeOnNode(0)) != 0 {
		t.Fatal("FreeOnNode returned dead executors")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverNode(t *testing.T) {
	c := small()
	c.FailNode(1)
	c.RecoverNode(1)
	e := c.Node(1).Executors()[0]
	if !e.Alive() {
		t.Fatal("executor dead after recovery")
	}
	if err := c.Allocate(e, 1); err != nil {
		t.Fatalf("cannot allocate recovered executor: %v", err)
	}
	found := false
	for _, fe := range c.Free() {
		if fe.Node.ID == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered node missing from Free")
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	c := New(Config{Nodes: 10, ExecutorsPerNode: 1, SlowNodeFraction: 0.2})
	slow := 0
	for _, n := range c.Nodes() {
		switch n.Speed {
		case 1:
		case 1.0 / 3:
			slow++
		default:
			t.Fatalf("node %d speed %v", n.ID, n.Speed)
		}
	}
	if slow != 2 {
		t.Fatalf("slow nodes = %d, want 2 (20%% of 10)", slow)
	}
	// Homogeneous default.
	c2 := New(Config{Nodes: 4, ExecutorsPerNode: 1})
	for _, n := range c2.Nodes() {
		if n.Speed != 1 {
			t.Fatalf("homogeneous node %d speed %v", n.ID, n.Speed)
		}
	}
}
