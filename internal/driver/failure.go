package driver

import (
	"fmt"
	"sort"

	"repro/internal/app"
	"repro/internal/trace"
)

// FailNodeAt schedules a whole-node failure at simulated time t: the node's
// executors die, tasks running on them are re-queued with their owning
// applications, the NameNode decommissions the DataNode, and re-replication
// streams from surviving replicas as tracked flows that re-register the new
// replica on completion. Blocks whose replicas all die become
// preference-free: tasks reading them regenerate input locally, a stand-in
// for recomputing lost partitions from lineage.
func (d *Driver) FailNodeAt(t float64, node int) {
	d.eng.At(t, func() { d.InjectNodeFail(node) })
}

// RecoverNodeAt schedules the node's return to service: its executors
// become allocatable again and its stored replicas become visible.
func (d *Driver) RecoverNodeAt(t float64, node int) {
	d.eng.At(t, func() { d.InjectNodeRecover(node) })
}

// InjectNodeFail takes a node out of service now. Idempotent: failing an
// already-failed node is a traced no-op returning false.
func (d *Driver) InjectNodeFail(node int) bool {
	if d.failedNodes[node] {
		d.faultNoop(node, -1)
		return false
	}
	d.failedNodes[node] = true
	d.failNode(node)
	return true
}

// InjectNodeRecover brings a failed node back now. Idempotent: recovering a
// healthy node is a traced no-op returning false.
func (d *Driver) InjectNodeRecover(node int) bool {
	if !d.failedNodes[node] {
		d.faultNoop(node, -1)
		return false
	}
	delete(d.failedNodes, node)
	d.cl.RecoverNode(node)
	d.nn.Recommission(node)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.NodeRecover, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	d.dispatch()
	return true
}

// faultNoop records an ignored fault injection (double-fail, recover of a
// healthy target, and similar), in the trace and the observability sinks.
func (d *Driver) faultNoop(node, exec int) {
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.FaultNoop, App: -1, Job: -1, Stage: -1, Task: -1, Exec: exec, Node: node})
	if d.cfg.Obsv != nil {
		d.cfg.Obsv.FaultNoop(node, exec)
	}
}

// runningTasksSorted returns the tasks with tracked attempts in
// deterministic order — required before any fault handling that creates
// flows or consumes randomness per task.
func (d *Driver) runningTasksSorted() []*app.Task {
	tasks := make([]*app.Task, 0, len(d.running))
	for t := range d.running {
		tasks = append(tasks, t)
	}
	sortTasks(tasks)
	return tasks
}

func (d *Driver) failNode(node int) {
	now := d.eng.Now()
	d.tr.Emit(trace.Event{Time: now, Kind: trace.NodeFail, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})

	// 1. Kill attempts running on the node; collect their tasks. Attempts on
	// other nodes with in-flight fetches *from* this node are redirected to
	// local regeneration (their data source just vanished). Deterministic
	// task order: replacement flows acquire IDs in a fixed sequence.
	var requeue []*app.Task
	for _, task := range d.runningTasksSorted() {
		live := 0
		for _, at := range d.running[task] {
			if at.dead {
				continue
			}
			if at.exec.Node.ID != node {
				live++
				d.redirectFlows(at, node)
				continue
			}
			at.dead = true
			d.col.AttemptFailures++
			for _, f := range at.flows {
				d.fabric.Cancel(f)
			}
			if at.timer != nil {
				d.eng.Cancel(at.timer)
			}
			// The executor's slot accounting is reset by FailNode below;
			// do not FinishTask on a dying executor.
		}
		if live == 0 && task.State == app.TaskRunning {
			requeue = append(requeue, task)
			delete(d.running, task)
			d.recovering[task] = now
		}
	}

	// 2. Take the executors out of service.
	d.cl.FailNode(node)

	// 3. Abort re-replication transfers touching the dead node.
	d.abortReplTouching(node)

	// 4. Decommission the DataNode; stream each planned copy as a tracked
	// flow that commits the new replica with the NameNode on completion. A
	// Decommission error is surfaced as a replication stall, not dropped.
	copies, err := d.nn.Decommission(node)
	if err != nil {
		d.col.ReplicationStalls++
		d.tr.Emit(trace.Event{Time: now, Kind: trace.ReplicationStall, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	}
	for _, cp := range copies {
		rf := &replFlow{cp: cp}
		rf.flow = d.fabric.Transfer(cp.From, cp.To, float64(cp.Size), func() { d.replicaRestored(rf) })
		d.repl = append(d.repl, rf)
	}

	// 5. Re-queue interrupted tasks with retry/backoff accounting.
	d.requeueFailed(requeue)
	d.managerCall(func() { d.cfg.Manager.OnNodeFail(d, node) })
	d.dispatch()
}

// redirectFlows replaces an attempt's in-flight fetches sourced at a dead
// node with local regeneration of the remaining bytes (lineage recompute).
func (d *Driver) redirectFlows(at *attempt, node int) {
	for i, f := range at.flows {
		if f.Done() || f.Src() != node {
			continue
		}
		// Cancel first: it advances the fabric to now, so Remaining then
		// counts only the bytes not yet delivered.
		d.fabric.Cancel(f)
		at.flows[i] = d.fabric.LocalRead(at.exec.Node.ID, f.Remaining(), func() { d.readFinished(at) })
	}
}

// abortReplTouching cancels in-flight re-replication transfers whose source
// or target is the dead node and withdraws their pending registrations.
func (d *Driver) abortReplTouching(node int) {
	kept := d.repl[:0]
	for _, rf := range d.repl {
		if rf.cp.From != node && rf.cp.To != node {
			kept = append(kept, rf)
			continue
		}
		d.fabric.Cancel(rf.flow)
		d.nn.AbortReplica(rf.cp.Block, rf.cp.To)
		d.col.ReplicationStalls++
		d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.ReplicationStall, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	}
	d.repl = kept
}

// replicaRestored completes one tracked re-replication: the transfer's bytes
// have arrived, so the replica becomes readable.
func (d *Driver) replicaRestored(rf *replFlow) {
	for i, r := range d.repl {
		if r == rf {
			d.repl = append(d.repl[:i], d.repl[i+1:]...)
			break
		}
	}
	if err := d.nn.CommitReplica(rf.cp.Block, rf.cp.To); err != nil {
		d.col.ReplicationStalls++
		d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.ReplicationStall, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: rf.cp.To})
		return
	}
	d.replDone = growBlocks(d.replDone, rf.cp.Block, 0)
	d.replDone[rf.cp.Block]++
	d.col.ReplicasRestored++
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.ReplicaRestored, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: rf.cp.To})
}

// sortTasks orders tasks deterministically (app, job, stage, index).
func sortTasks(ts []*app.Task) {
	sort.Slice(ts, func(i, j int) bool { return taskLess(ts[i], ts[j]) })
}

func taskLess(a, b *app.Task) bool {
	if a.Job.App.ID != b.Job.App.ID {
		return a.Job.App.ID < b.Job.App.ID
	}
	if a.Job.ID != b.Job.ID {
		return a.Job.ID < b.Job.ID
	}
	if a.Stage.ID != b.Stage.ID {
		return a.Stage.ID < b.Stage.ID
	}
	return a.Index < b.Index
}

// failNodeSanity returns an error if internal accounting drifted: a task
// is tracked in running with no live attempt (used in tests).
func (d *Driver) failNodeSanity() error {
	for task, attempts := range d.running {
		live := 0
		for _, at := range attempts {
			if !at.dead {
				live++
			}
		}
		if live == 0 {
			return fmt.Errorf("task %v has no live attempts but is tracked", task)
		}
	}
	return nil
}
