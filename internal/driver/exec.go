package driver

import (
	"sort"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// Task-execution constants: every run uses these values.
const (
	// maxFanIn bounds the number of concurrent fetch flows per shuffle
	// task; sources are bundled beyond it.
	maxFanIn = 8
	// remoteReadCapBps caps a single remote HDFS block read at 75 MB/s
	// (protocol overhead keeps single-stream reads well below line rate;
	// the paper cites remote reads as "as much as 20 times slower than
	// local data access").
	remoteReadCapBps = 75e6
	// stragglerFactor multiplies a straggler's compute time
	// (Config.StragglerProb).
	stragglerFactor = 4
	// speculationMultiplier: a running task is re-launched when it exceeds
	// this multiple of the stage's median completed duration.
	speculationMultiplier = 1.5
	// speculationQuantile is the fraction of the stage that must be
	// complete before speculation may trigger.
	speculationQuantile = 0.5
)

// launch starts one attempt of a task on an executor: input read or shuffle
// fetch over the fabric, then compute, then completion.
func (d *Driver) launch(t *app.Task, e *cluster.Executor, spec bool) {
	now := d.eng.Now()
	if err := d.cl.StartTask(e); err != nil {
		panic(err)
	}
	at := &attempt{task: t, exec: e, spec: spec, launched: now}
	d.running[t] = append(d.running[t], at)
	if faultAt, ok := d.recovering[t]; ok {
		d.col.RecoverySec = append(d.col.RecoverySec, now-faultAt)
		delete(d.recovering, t)
	}
	if !spec {
		t.State = app.TaskRunning
		t.LaunchedAt = now
		t.RanOnNode = e.Node.ID
	}
	t.Attempts++
	delete(d.hints, t)
	d.tr.Emit(trace.Event{Time: now, Kind: trace.TaskLaunch, App: int(t.Job.App.ID),
		Job: t.Job.ID, Stage: t.Stage.ID, Task: t.Index, Exec: e.ID, Node: e.Node.ID})

	node := e.Node.ID
	if t.IsInput() {
		d.nn.RecordAccess(t.Block)
		locs := d.nn.Locations(t.Block)
		// Drop replica sources this task already failed against (stale
		// metadata or flaky DataNodes); the retry tries the next one.
		if bad := d.badSrc[t]; len(bad) > 0 {
			kept := locs[:0]
			for _, n := range locs {
				if !bad[n] {
					kept = append(kept, n)
				}
			}
			locs = kept
		}
		local := false
		for _, n := range locs {
			if n == node {
				local = true
				break
			}
		}
		if local && !d.sourceReadable(node) {
			// The local DataNode is flaking (stale metadata still lists
			// it); read a surviving replica remotely instead.
			local = false
			kept := locs[:0]
			for _, n := range locs {
				if n != node {
					kept = append(kept, n)
				}
			}
			locs = kept
		}
		if !spec {
			t.RanLocal = local
		}
		bytes := float64(t.InputBytes)
		at.remaining = 1
		done := func() { d.readFinished(at) }
		if local || len(locs) == 0 {
			// No reachable replica left → regenerate locally (lineage).
			tier := netsim.TierDisk
			if local && d.cacheTouch(node, t.Block, t.InputBytes) {
				// Warm in the reader's own cache: stream from memory. A
				// lineage regeneration (!local) never consults the cache —
				// the node holds no replica to have cached.
				tier = netsim.TierMemory
			}
			at.flows = append(at.flows, d.fabric.LocalReadTier(node, bytes, tier, done))
			return
		}
		src := d.pickReplica(t.Block, locs, node)
		if !d.sourceReadable(src) {
			d.failConnect(at, src)
			return
		}
		tier := netsim.TierDisk
		if d.cacheTouch(src, t.Block, t.InputBytes) {
			// Warm at the source: its disk stays idle; the network path is
			// charged as usual.
			tier = netsim.TierMemory
		}
		at.flows = append(at.flows, d.fabric.RemoteReadCapTier(src, node, bytes, remoteReadCapBps, tier, done))
		return
	}
	d.startShuffleFetch(at)
}

// startShuffleFetch launches the fetch flows of a non-input task: it pulls
// its share of every parent stage's output from the nodes the parent tasks
// ran on, bundling sources beyond maxFanIn.
func (d *Driver) startShuffleFetch(at *attempt) {
	t := at.task
	dst := at.exec.Node.ID

	// Volume produced per source node across all parent stages. Output on
	// nodes that have since failed is gone (no external shuffle service
	// survives a machine loss); it is regenerated locally instead — the
	// stand-in for recomputing the parent partitions from lineage.
	perNode := map[int]float64{}
	regen := 0.0
	for _, p := range t.Stage.Parents {
		for _, pt := range p.Tasks {
			if pt.OutputBytes > 0 && pt.RanOnNode >= 0 {
				if d.failedNodes[pt.RanOnNode] {
					regen += float64(pt.OutputBytes)
					continue
				}
				perNode[pt.RanOnNode] += float64(pt.OutputBytes)
			}
		}
	}
	width := len(t.Stage.Tasks)
	if width == 0 {
		width = 1
	}
	nodes := make([]int, 0, len(perNode))
	total := 0.0
	for n, b := range perNode {
		nodes = append(nodes, n)
		total += b
	}
	sort.Ints(nodes)
	if total == 0 && regen == 0 {
		// Nothing to fetch: fall through to compute directly.
		at.remaining = 1
		d.readFinished(at)
		return
	}

	// Bundle sources into at most maxFanIn groups to bound flow count; each
	// group's flow originates at its largest contributor.
	groups := maxFanIn
	if len(nodes) < groups {
		groups = len(nodes)
	}
	groupBytes := make([]float64, groups)
	groupSrc := make([]int, groups)
	for i := range groupSrc {
		groupSrc[i] = -1
	}
	for i, n := range nodes {
		g := i % groups
		if groupSrc[g] == -1 || perNode[n] > perNode[groupSrc[g]] {
			groupSrc[g] = n
		}
		groupBytes[g] += perNode[n]
	}

	at.remaining = groups
	// All fetches start at this instant: one rate recompute for the set.
	d.fabric.Batch(func() {
		if regen > 0 {
			at.remaining++
			at.flows = append(at.flows, d.fabric.LocalRead(dst, regen/float64(width), func() {
				d.readFinished(at)
			}))
		}
		for g := 0; g < groups; g++ {
			share := groupBytes[g] / float64(width)
			at.flows = append(at.flows, d.fabric.Transfer(groupSrc[g], dst, share, func() {
				d.readFinished(at)
			}))
		}
	})
}

// readFinished fires once per completed fetch flow; when all input is in,
// the compute phase begins.
func (d *Driver) readFinished(at *attempt) {
	if at.dead {
		return
	}
	at.remaining--
	if at.remaining > 0 {
		return
	}
	at.readDone = d.eng.Now()
	compute := at.task.ComputeSec
	if sp := at.exec.Node.Speed; sp > 0 && sp != 1 {
		compute /= sp // slow nodes compute slower
	}
	if n := d.cfg.ComputeNoise; n > 0 {
		compute *= d.rng.Range(1-n, 1+n)
	}
	if d.cfg.StragglerProb > 0 && d.rng.Bool(d.cfg.StragglerProb) {
		compute *= stragglerFactor
	}
	at.timer = d.eng.Schedule(compute, func() { d.attemptFinished(at) })
}

// attemptFinished completes one attempt; the first attempt to finish wins.
func (d *Driver) attemptFinished(at *attempt) {
	if at.dead {
		return
	}
	at.dead = true
	t := at.task
	e := at.exec
	now := d.eng.Now()
	if err := d.cl.FinishTask(e); err != nil {
		panic(err)
	}

	if t.State == app.TaskDone {
		// A sibling attempt already completed the task.
		d.afterSlotFreed(e)
		return
	}

	// Cancel sibling attempts (speculation: first finisher wins).
	for _, other := range d.running[t] {
		if other == at || other.dead {
			continue
		}
		d.killAttempt(other)
	}
	delete(d.running, t)
	delete(d.taskFails, t)
	delete(d.badSrc, t)

	t.RanOnNode = e.Node.ID
	if !t.IsInput() {
		t.RanLocal = false
	} else if at.spec {
		// Re-derive locality for the winning (speculative) attempt.
		t.RanLocal = d.localTo(t, e.Node.ID)
	}

	d.col.AddTask(metrics.TaskRecord{
		App:            int(t.Job.App.ID),
		Job:            t.Job.ID,
		Stage:          t.Stage.ID,
		Index:          t.Index,
		Workload:       t.Job.Workload,
		Input:          t.IsInput(),
		Local:          t.RanLocal,
		SchedulerDelay: t.LaunchedAt - t.ReadyAt,
		ReadSec:        at.readDone - at.launched,
		Duration:       now - at.launched,
		Speculative:    at.spec,
	})

	d.tr.Emit(trace.Event{Time: now, Kind: trace.TaskFinish, App: int(t.Job.App.ID),
		Job: t.Job.ID, Stage: t.Stage.ID, Task: t.Index, Exec: e.ID, Node: e.Node.ID, Local: t.RanLocal})
	stageDone, jobDone := t.Job.MarkTaskDone(t, now)
	if stageDone {
		d.onStageComplete(t.Job)
	}
	if jobDone {
		d.onJobComplete(t.Job)
	}
	if d.cfg.Speculation {
		d.maybeSpeculate(t.Stage)
	}
	d.afterSlotFreed(e)
}

// killAttempt cancels an attempt's flows and timer and frees its executor.
func (d *Driver) killAttempt(at *attempt) {
	at.dead = true
	for _, f := range at.flows {
		d.fabric.Cancel(f)
	}
	if at.timer != nil {
		d.eng.Cancel(at.timer)
	}
	if err := d.cl.FinishTask(at.exec); err != nil {
		panic(err)
	}
	d.afterSlotFreed(at.exec)
}

// afterSlotFreed re-dispatches and, if the executor stays idle, informs the
// manager so it can reclaim or re-offer it.
func (d *Driver) afterSlotFreed(e *cluster.Executor) {
	d.dispatch()
	if e.Running() == 0 && !d.inManager {
		d.managerCall(func() { d.cfg.Manager.OnExecutorIdle(d, e) })
		d.dispatch()
	}
}

// onStageComplete readies child stages and queues their tasks.
func (d *Driver) onStageComplete(j *app.Job) {
	now := d.eng.Now()
	var ready []*app.Task
	for _, s := range j.ReadyStages() {
		for _, t := range s.Tasks {
			if t.State == app.TaskWaiting {
				t.State = app.TaskReady
				t.ReadyAt = now
				ready = append(ready, t)
			}
		}
	}
	if len(ready) > 0 {
		d.scheds[j.App.ID].Submit(ready, now)
	}
}

// onJobComplete records job metrics and lets the manager reallocate.
func (d *Driver) onJobComplete(j *app.Job) {
	local, total := 0, 0
	for _, t := range j.InputTasks() {
		total++
		if t.RanLocal {
			local++
		}
	}
	inputSec := 0.0
	if in := j.InputStage(); in != nil {
		inputSec = in.FinishedAt() - j.SubmitAt
	}
	d.col.AddJob(metrics.JobRecord{
		App:           int(j.App.ID),
		Job:           j.ID,
		Workload:      j.Workload,
		Submit:        j.SubmitAt,
		Finish:        j.FinishedAt,
		InputStageSec: inputSec,
		LocalInput:    local,
		TotalInput:    total,
	})
	j.App.RecordJobLocality(local, total)
	d.tr.Emit(trace.Event{Time: d.eng.Now(), Kind: trace.JobFinish, App: int(j.App.ID),
		Job: j.ID, Stage: -1, Task: -1, Exec: -1, Node: -1, Local: local == total})
	d.managerCall(func() { d.cfg.Manager.OnJobFinish(d, j.App, j) })
}

// maybeSpeculate launches duplicate attempts for stragglers: running tasks
// whose age exceeds speculationMultiplier × the stage's median completed
// duration, once speculationQuantile of the stage has finished.
func (d *Driver) maybeSpeculate(s *app.Stage) {
	now := d.eng.Now()
	doneFrac := float64(s.Done()) / float64(len(s.Tasks))
	if doneFrac < speculationQuantile || s.Complete() {
		return
	}
	var durations []float64
	for _, t := range s.Tasks {
		if t.State == app.TaskDone {
			durations = append(durations, t.FinishedAt-t.LaunchedAt)
		}
	}
	sort.Float64s(durations)
	median := metrics.Percentile(durations, 0.5)
	threshold := median * speculationMultiplier
	for _, t := range s.Tasks {
		if t.State != app.TaskRunning || len(d.running[t]) != 1 {
			continue
		}
		if now-t.LaunchedAt <= threshold {
			continue
		}
		// Find an idle executor owned by the app (prefer one local to the
		// task's block).
		var pick *cluster.Executor
		for _, e := range d.cl.Owned(t.Job.App.ID) {
			if e.FreeSlots() <= 0 || d.execReady[e.ID] > now || d.nodeExcluded(e.Node.ID, now) {
				continue
			}
			if t.IsInput() && d.localTo(t, e.Node.ID) {
				pick = e
				break
			}
			if pick == nil {
				pick = e
			}
		}
		if pick != nil {
			d.launch(t, pick, true)
		}
	}
}

// pickReplica selects the source of a non-local read via the configured
// replica selector (random by default). Block-aware selectors (cache
// warmth) get the block ID; plain selectors keep the narrow signature.
func (d *Driver) pickReplica(id hdfs.BlockID, locs []int, dst int) int {
	sel := d.cfg.ReplicaSelection
	if sel == nil {
		return locs[d.rng.Intn(len(locs))]
	}
	if bs, ok := sel.(hdfs.BlockAwareSelector); ok {
		return bs.PickBlock(d.nn, id, locs, dst, d.rng)
	}
	return sel.Pick(d.nn, locs, dst, d.rng)
}

// cacheTouch consults the serving node's block cache before a read: a hit
// renews recency and streams from the memory tier; a miss admits the block,
// since this node is about to serve its bytes (keeping "cached implies
// held" an auditable invariant). Hit/miss/eviction counts land in the
// collector, totals and per node. Always false when the tier is disabled.
func (d *Driver) cacheTouch(node int, id hdfs.BlockID, size int64) bool {
	c := d.nn.Cache(node)
	if c == nil {
		return false
	}
	nc := d.col.NodeCache(node)
	if c.Touch(id) {
		d.col.CacheHits++
		nc.Hits++
		return true
	}
	d.col.CacheMisses++
	nc.Misses++
	ev := c.Admit(id, size)
	d.col.CacheEvictions += ev
	nc.Evictions += ev
	return false
}

// localTo reports whether the task's block has a replica on the node.
func (d *Driver) localTo(t *app.Task, node int) bool {
	return d.nn.ReplicaOn(t.Block, node)
}
