package driver

import (
	"fmt"
	"strings"

	"repro/internal/app"
)

// Audit checks the cross-layer invariants that faults must never break:
//
//   - cluster slot conservation (cluster.Validate) and dead-executor state;
//   - task conservation: every task is exactly one of done, running with a
//     live attempt on a live executor, ready (queued with its scheduler or
//     waiting out a retry backoff), or waiting on an unready stage — no
//     task is lost or duplicated across those states;
//   - replica bounds: every block keeps at least one registered replica,
//     registered replicas never exceed the initial placement plus committed
//     re-replications, and pending re-replication targets are not dead;
//   - the fabric carries no flow whose endpoint is a failed node.
//
// Chaos tests run Audit after every fault application and reversal. It
// returns nil when all invariants hold, else an error listing every
// violation found. Iteration is deterministic throughout.
func (d *Driver) Audit() error {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if err := d.cl.Validate(); err != nil {
		fail("cluster: %v", err)
	}

	// Task conservation.
	now := d.eng.Now()
	for _, a := range d.apps {
		queued := map[*app.Task]bool{}
		for _, t := range d.scheds[a.ID].PendingTasks() {
			queued[t] = true
		}
		for _, j := range a.Jobs {
			for _, s := range j.Stages {
				for _, t := range s.Tasks {
					live := d.liveAttempts(t)
					_, waiting := d.backoff[t]
					switch t.State {
					case app.TaskDone:
						if live > 0 || queued[t] || waiting {
							fail("%v done but live=%d queued=%v backoff=%v", t, live, queued[t], waiting)
						}
					case app.TaskRunning:
						if live == 0 {
							fail("%v running with no live attempt", t)
						}
						if queued[t] || waiting {
							fail("%v running but also queued=%v backoff=%v", t, queued[t], waiting)
						}
						for _, at := range d.running[t] {
							if !at.dead && !at.exec.Alive() {
								fail("%v has a live attempt on dead executor %d", t, at.exec.ID)
							}
						}
					case app.TaskReady:
						if live > 0 {
							fail("%v ready but has %d live attempts", t, live)
						}
						if !queued[t] && !waiting {
							fail("%v ready but neither queued nor in backoff", t)
						}
					case app.TaskWaiting:
						if live > 0 || queued[t] || waiting {
							fail("%v waiting but live=%d queued=%v backoff=%v", t, live, queued[t], waiting)
						}
					}
				}
			}
		}
	}

	// Replica bounds. The baseline registration count is captured lazily the
	// first time a block is audited (minus any commits already made), so the
	// invariant registered ≤ baseline + commits holds from any start point.
	for _, name := range d.nn.Files() {
		f, err := d.nn.Open(name)
		if err != nil {
			fail("open %s: %v", name, err)
			continue
		}
		for _, b := range f.Blocks {
			reg := d.nn.RegisteredReplicas(b.ID)
			if reg < 1 {
				fail("block %d of %s has no registered replica (data lost)", b.ID, name)
			}
			if _, ok := d.replBase[b.ID]; !ok {
				d.replBase[b.ID] = reg - d.replDone[b.ID]
			}
			if limit := d.replBase[b.ID] + d.replDone[b.ID]; reg > limit {
				fail("block %d has %d registered replicas, max %d (duplicated registration)", b.ID, reg, limit)
			}
		}
	}
	for _, id := range d.nn.PendingBlockIDs() {
		for _, target := range d.nn.PendingReplicas(id) {
			if d.failedNodes[target] {
				fail("block %d has a pending replica on failed node %d", id, target)
			}
		}
	}

	// No flow touches a failed node.
	for _, f := range d.fabric.Flows() {
		if f.Done() {
			continue
		}
		if src := f.Src(); d.failedNodes[src] {
			fail("flow sourced at failed node %d still active", src)
		}
		if dst := f.Dst(); d.failedNodes[dst] {
			fail("flow targeting failed node %d still active", dst)
		}
	}

	// Block-cache coherence (when the tier is enabled): bytes cached never
	// exceed capacity, every cached block is held by the node (admission
	// happens only on serving nodes, and a node never drops a replica), and
	// a failed node's cache is empty per the coherence rule —
	// node death drops the in-memory tier; flakes (Suspend) retain it.
	if d.nn.CacheEnabled() {
		for node := 0; node < d.nn.Nodes(); node++ {
			c := d.nn.Cache(node)
			if c.Used() > c.Capacity() {
				fail("node %d caches %d bytes over capacity %d", node, c.Used(), c.Capacity())
			}
			if d.failedNodes[node] && c.Len() > 0 {
				fail("failed node %d retains %d cached blocks", node, c.Len())
			}
			dn := d.nn.DataNode(node)
			for _, id := range c.Blocks() {
				if !dn.Holds(id) {
					fail("node %d caches block %d it does not hold", node, id)
				}
			}
		}
	}

	// Backoff bookkeeping (sorted for deterministic violation order).
	var boTasks []*app.Task
	for t := range d.backoff {
		boTasks = append(boTasks, t)
	}
	sortTasks(boTasks)
	for _, t := range boTasks {
		timer := d.backoff[t]
		if t.State != app.TaskReady {
			fail("%v in backoff but state %v", t, t.State)
		}
		if timer == nil || timer.Cancelled() || timer.Time() < now {
			fail("%v backoff timer stale", t)
		}
	}

	if d.cfg.Obsv != nil {
		d.cfg.Obsv.Audit(len(v), strings.Join(v, "; "))
	}
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("audit at t=%.3f: %d violation(s):\n  %s", now, len(v), strings.Join(v, "\n  "))
}
