package driver

import (
	"repro/internal/app"
	"repro/internal/manager"
	"repro/internal/trace"
)

// Chaos injection operations beyond whole-node crashes. Every Inject*/
// Restore* pair is idempotent: applying a fault that is already in effect
// (or reverting one that is not) is a traced no-op returning false, so a
// fault schedule can never corrupt state by double application.

// InjectExecutorFail crashes one executor process — an OOM-killed JVM, not
// a machine loss. Its node keeps serving HDFS reads and shuffle data.
func (d *Driver) InjectExecutorFail(execID int) bool {
	e := d.cl.Executor(execID)
	if !e.Alive() {
		d.faultNoop(e.Node.ID, execID)
		return false
	}
	now := d.eng.Now()
	d.tr.Emit(trace.Event{Time: now, Kind: trace.ExecFail, App: -1, Job: -1, Stage: -1, Task: -1, Exec: execID, Node: e.Node.ID})
	var requeue []*app.Task
	for _, task := range d.runningTasksSorted() {
		live := 0
		for _, at := range d.running[task] {
			if at.dead {
				continue
			}
			if at.exec != e {
				live++
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
			// Slot accounting is reset by FailExecutor below.
		}
		if live == 0 && task.State == app.TaskRunning {
			requeue = append(requeue, task)
			delete(d.running, task)
			d.recovering[task] = now
		}
	}
	d.cl.FailExecutor(e)
	d.recordNodeFailure(e.Node.ID)
	d.requeueFailed(requeue)
	if h, ok := d.cfg.Manager.(manager.ExecutorFaultHandler); ok {
		d.managerCall(func() { h.OnExecutorFail(d, execID) })
	}
	d.dispatch()
	return true
}

// InjectExecutorRecover restarts a crashed executor. No-op (false) when the
// executor is alive or its whole node is down (node recovery handles that).
func (d *Driver) InjectExecutorRecover(execID int) bool {
	e := d.cl.Executor(execID)
	if e.Alive() || d.failedNodes[e.Node.ID] {
		d.faultNoop(e.Node.ID, execID)
		return false
	}
	d.cl.RecoverExecutor(e)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.ExecRecover, App: -1, Job: -1, Stage: -1, Task: -1, Exec: execID, Node: e.Node.ID})
	if h, ok := d.cfg.Manager.(manager.ExecutorFaultHandler); ok {
		d.managerCall(func() { h.OnExecutorRecover(d, execID) })
	}
	d.dispatch()
	return true
}

// partitionBps is the leak capacity of a network partition's choke. netsim
// capacities are bytes/s, so this trickle is 1 MB/s (8 Mbps).
const partitionBps = 1e6

// InjectPartition splits the network into groups (groups[node] = group id):
// flows crossing the boundary are throttled to a trickle (partitionBps).
// No-op (false) while a partition is already in effect.
func (d *Driver) InjectPartition(groups []int) bool {
	if d.fabric.Partitioned() {
		d.faultNoop(-1, -1)
		return false
	}
	d.fabric.SetPartition(groups, partitionBps)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.NetPartition, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: -1})
	return true
}

// HealPartition removes the active partition. No-op (false) without one.
func (d *Driver) HealPartition() bool {
	if !d.fabric.Partitioned() {
		d.faultNoop(-1, -1)
		return false
	}
	d.fabric.ClearPartition()
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.NetHeal, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: -1})
	return true
}

// InjectLinkDegrade scales a node's up/downlink to factor × nominal
// (0 < factor < 1). No-op (false) if the node's links are already degraded.
func (d *Driver) InjectLinkDegrade(node int, factor float64) bool {
	if d.degraded[node] || factor <= 0 || factor >= 1 {
		d.faultNoop(node, -1)
		return false
	}
	d.degraded[node] = true
	d.fabric.ScaleLinks(node, factor)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.LinkDegrade, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	return true
}

// RestoreLinks restores a degraded node's links to nominal capacity.
func (d *Driver) RestoreLinks(node int) bool {
	if !d.degraded[node] {
		d.faultNoop(node, -1)
		return false
	}
	delete(d.degraded, node)
	d.fabric.ScaleLinks(node, 1)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.LinkRestore, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	return true
}

// InjectSlowDisk scales a node's disk bandwidth to factor × nominal — a
// slow-disk straggler. No-op (false) if the disk is already slowed.
func (d *Driver) InjectSlowDisk(node int, factor float64) bool {
	if d.slowDisks[node] || factor <= 0 || factor >= 1 {
		d.faultNoop(node, -1)
		return false
	}
	d.slowDisks[node] = true
	d.fabric.ScaleDisk(node, factor)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.DiskSlow, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	return true
}

// RestoreDisk restores a slowed disk to nominal bandwidth.
func (d *Driver) RestoreDisk(node int) bool {
	if !d.slowDisks[node] {
		d.faultNoop(node, -1)
		return false
	}
	delete(d.slowDisks, node)
	d.fabric.ScaleDisk(node, 1)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.DiskRestore, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	return true
}

// InjectDataNodeFlake suspends a DataNode: its process is up but stops
// serving block reads and drops out of fresh Locations answers; its disk
// contents survive. No-op (false) if already suspended or the node is down.
func (d *Driver) InjectDataNodeFlake(node int) bool {
	if !d.nn.Suspend(node) {
		d.faultNoop(node, -1)
		return false
	}
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.DataNodeFlake, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	return true
}

// RestoreDataNode resumes a flaky DataNode.
func (d *Driver) RestoreDataNode(node int) bool {
	if !d.nn.Resume(node) {
		d.faultNoop(node, -1)
		return false
	}
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.DataNodeResume, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	return true
}

// InjectStaleMetadata freezes the NameNode's Locations answers at a
// snapshot of the current state: failures and recoveries during the window
// are invisible to schedulers and the manager. No-op (false) if a window is
// already open.
func (d *Driver) InjectStaleMetadata() bool {
	if !d.nn.BeginStale() {
		d.faultNoop(-1, -1)
		return false
	}
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.MetaStale, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: -1})
	return true
}

// RestoreMetadata closes the stale window; Locations answers fresh again.
func (d *Driver) RestoreMetadata() bool {
	if !d.nn.EndStale() {
		d.faultNoop(-1, -1)
		return false
	}
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.MetaFresh, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: -1})
	return true
}
