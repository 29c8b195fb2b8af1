package driver

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/app"
	"repro/internal/hdfs"
)

// Audit checks the cross-layer invariants that faults must never break:
//
//   - cluster slot conservation, dead-executor state and the owned-executor
//     index (cluster.Validate);
//   - task conservation: every task is exactly one of done, running with a
//     live attempt on a live executor, ready (queued once with its own
//     scheduler or waiting out a retry backoff, not both), or waiting on an
//     unready stage — no task is lost or duplicated across those states.
//     The check walks only what is live (running attempts, scheduler
//     queues, backoff) against per-state task tallies; when that fails, a
//     walk over every task of every submitted job words the violations, and
//     a clean walk means the tally itself drifted;
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

	now := d.eng.Now()

	// Task conservation: the live walk settles a clean state; only a
	// failed one pays for the full walk, which words the violations.
	if !d.liveTasksConserved() {
		n := len(v)
		counted := d.walkTasks(fail)
		if len(v) == n {
			fail("task tally [waiting ready running done] %v, counted %v", d.tally, counted)
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
			d.replBase = growBlocks(d.replBase, b.ID, unaudited)
			d.replDone = growBlocks(d.replDone, b.ID, 0)
			if d.replBase[b.ID] == unaudited {
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

// liveTasksConserved checks task conservation from the live structures and
// the per-state tally alone: every task with a live attempt is running with
// no live attempt on a dead executor, every task queued with its own
// application's scheduler or in backoff is ready and listed once, and those
// counts equal the running and ready tallies. With a true tally that is the
// full walk's verdict; a false result sends Audit to the walk.
func (d *Driver) liveTasksConserved() bool {
	running := 0
	for t, ats := range d.running {
		live := 0
		for _, at := range ats {
			if at.dead {
				continue
			}
			if !at.exec.Alive() {
				return false
			}
			live++
		}
		if live == 0 {
			continue
		}
		if t.State != app.TaskRunning {
			return false
		}
		running++
	}
	if running != d.tally[app.TaskRunning] {
		return false
	}
	seen := d.auditSeen
	clear(seen)
	for _, a := range d.apps {
		for _, t := range d.scheds[a.ID].PendingTasks() {
			if t.State != app.TaskReady || t.Job.App != a || seen[t] {
				return false
			}
			seen[t] = true
		}
	}
	for t := range d.backoff {
		if t.State != app.TaskReady || seen[t] {
			return false
		}
	}
	return len(seen)+len(d.backoff) == d.tally[app.TaskReady]
}

// walkTasks checks every task of every submitted job against the running,
// queued and backoff structures, reporting each violation through fail, and
// returns the tasks counted in each state.
func (d *Driver) walkTasks(fail func(string, ...any)) (counted [4]int) {
	for _, a := range d.apps {
		queued := map[*app.Task]int{}
		for _, t := range d.scheds[a.ID].PendingTasks() {
			if t.Job.App != a {
				fail("%v queued with application %d", t, a.ID)
			}
			queued[t]++
		}
		for _, j := range a.Jobs {
			for _, s := range j.Stages {
				for _, t := range s.Tasks {
					counted[t.State]++
					live := d.liveAttempts(t)
					q := queued[t]
					_, waiting := d.backoff[t]
					switch t.State {
					case app.TaskDone:
						if live > 0 || q > 0 || waiting {
							fail("%v done but live=%d queued=%v backoff=%v", t, live, q > 0, waiting)
						}
					case app.TaskRunning:
						if live == 0 {
							fail("%v running with no live attempt", t)
						}
						if q > 0 || waiting {
							fail("%v running but also queued=%v backoff=%v", t, q > 0, waiting)
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
						if q == 0 && !waiting {
							fail("%v ready but neither queued nor in backoff", t)
						}
						if q > 1 || q == 1 && waiting {
							fail("%v ready but queued %d times and backoff=%v", t, q, waiting)
						}
					case app.TaskWaiting:
						if live > 0 || q > 0 || waiting {
							fail("%v waiting but live=%d queued=%v backoff=%v", t, live, q > 0, waiting)
						}
					}
				}
			}
		}
	}
	return counted
}

// unaudited marks a block whose replica baseline no audit has captured yet.
const unaudited = math.MinInt

// growBlocks returns s extended with fill until block id indexes it; the
// NameNode hands out block IDs sequentially from zero.
func growBlocks(s []int, id hdfs.BlockID, fill int) []int {
	for len(s) <= int(id) {
		s = append(s, fill)
	}
	return s
}
