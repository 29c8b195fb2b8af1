package driver

import (
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/mutant"
	"repro/internal/trace"
)

// The chaos-hardening constants Config.EnableResilience turns on (Spark-like
// values). With resilience off, retries re-queue immediately, no node is
// excluded and a connect failure is charged no time.
const (
	// retryBackoffSec is the base delay before re-queuing a failed task
	// attempt.
	retryBackoffSec = 0.5
	// maxRetryDoublings caps the exponential growth of retry delays.
	// Retries beyond the cap continue at the maximum delay — abandoning a
	// task would break the simulator's jobs-complete contract; runaway
	// retries surface in the TaskRetries metric instead.
	maxRetryDoublings = 4
	// blacklistThreshold failures on one node within blacklistWindowSec
	// exclude it from scheduling (Spark excludeOnFailure).
	blacklistThreshold = 3
	// blacklistWindowSec is both the sliding window for counting failures
	// and the duration of the exclusion.
	blacklistWindowSec = 30
	// connectTimeoutSec is charged when a task attempt tries to read from
	// an unreachable replica source before the attempt fails.
	connectTimeoutSec = 1
)

// retryDelay returns the backoff before the fails-th retry of a task:
// retryBackoffSec × 2^min(fails−1, maxRetryDoublings). Zero with resilience
// off — the pre-resilience immediate re-queue.
func (d *Driver) retryDelay(fails int) float64 {
	if !d.cfg.resilient || fails <= 0 {
		return 0
	}
	exp := fails - 1
	if exp > maxRetryDoublings {
		exp = maxRetryDoublings
	}
	return retryBackoffSec * math.Pow(2, float64(exp))
}

// requeueFailed re-queues tasks whose attempts were killed by a fault,
// applying retry accounting and exponential backoff. Tasks are processed in
// deterministic order; with backoff disabled they re-enter their schedulers
// immediately, exactly as the pre-resilience driver did.
func (d *Driver) requeueFailed(ts []*app.Task) {
	now := d.eng.Now()
	sortTasks(ts)
	immediate := map[cluster.AppID][]*app.Task{}
	for _, t := range ts {
		if mutant.Active == mutant.DriverTallyDrift { // seeded bug: bypass the tally
			t.State = app.TaskReady
		} else {
			d.setState(t, app.TaskReady)
		}
		t.ReadyAt = now
		t.RanOnNode = -1
		t.RanLocal = false
		d.taskFails[t]++
		d.col.TaskRetries++
		d.tr.Emit(trace.Event{Time: now, Kind: trace.TaskRetry, App: int(t.Job.App.ID),
			Job: t.Job.ID, Stage: t.Stage.ID, Task: t.Index, Exec: -1, Node: -1})
		delay := d.retryDelay(d.taskFails[t])
		if delay <= 0 {
			immediate[t.Job.App.ID] = append(immediate[t.Job.App.ID], t)
			continue
		}
		t := t
		d.backoff[t] = d.eng.Schedule(delay, func() {
			delete(d.backoff, t)
			t.ReadyAt = d.eng.Now()
			d.scheds[t.Job.App.ID].Submit([]*app.Task{t}, d.eng.Now())
			d.dispatch()
		})
	}
	for _, a := range d.apps {
		if ts := immediate[a.ID]; len(ts) > 0 {
			d.scheds[a.ID].Submit(ts, now)
		}
	}
}

// recordNodeFailure feeds the per-node failure blacklist (Spark
// excludeOnFailure-style): blacklistThreshold failures within
// blacklistWindowSec exclude the node from scheduling for the window. A
// no-op with resilience off.
func (d *Driver) recordNodeFailure(node int) {
	if !d.cfg.resilient {
		return
	}
	now := d.eng.Now()
	recent := d.failTimes[node][:0]
	for _, ts := range d.failTimes[node] {
		if now-ts <= blacklistWindowSec {
			recent = append(recent, ts)
		}
	}
	recent = append(recent, now)
	d.failTimes[node] = recent
	if len(recent) < blacklistThreshold {
		return
	}
	if until, ok := d.blacklist[node]; ok && until > now {
		return // already excluded
	}
	until := now + blacklistWindowSec
	d.blacklist[node] = until
	d.failTimes[node] = d.failTimes[node][:0]
	d.col.BlacklistEvents++
	d.tr.Emit(trace.Event{Time: now, Kind: trace.NodeBlacklist, App: -1, Job: -1, Stage: -1, Task: -1, Exec: -1, Node: node})
	// Without this wake-up, a cluster whose every schedulable node is
	// excluded would deadlock: nothing else re-triggers dispatch.
	d.eng.At(until, func() { d.dispatch() })
}

// nodeExcluded reports whether the node is currently blacklisted.
func (d *Driver) nodeExcluded(node int, now float64) bool {
	if len(d.blacklist) == 0 {
		return false
	}
	return d.blacklist[node] > now
}

// liveAttempts counts the non-dead attempts of a task.
func (d *Driver) liveAttempts(t *app.Task) int {
	n := 0
	for _, at := range d.running[t] {
		if !at.dead {
			n++
		}
	}
	return n
}

// sourceReadable reports whether a node can serve block reads right now.
func (d *Driver) sourceReadable(n int) bool {
	return !d.failedNodes[n] && d.nn.DataNode(n).Alive()
}

// failConnect charges the connect timeout against an attempt whose chosen
// replica source is unreachable, then fails the attempt. With resilience off
// the timer still goes through the event queue, at delay zero.
func (d *Driver) failConnect(at *attempt, src int) {
	at.remaining = 1
	timeout := 0.0
	if d.cfg.resilient {
		timeout = connectTimeoutSec
	}
	at.timer = d.eng.Schedule(timeout, func() { d.connectTimedOut(at, src) })
}

// connectTimedOut fails an attempt that could not reach its replica source:
// the source is remembered as bad for this task (so the retry tries another
// replica, falling back to local regeneration when none are left), the
// node's failure count feeds the blacklist, and the task re-queues with
// backoff.
func (d *Driver) connectTimedOut(at *attempt, src int) {
	if at.dead {
		return
	}
	at.dead = true
	t := at.task
	d.col.AttemptFailures++
	if d.badSrc[t] == nil {
		d.badSrc[t] = map[int]bool{}
	}
	d.badSrc[t][src] = true
	d.recordNodeFailure(src)
	if err := d.cl.FinishTask(at.exec); err != nil {
		panic(err)
	}
	if d.liveAttempts(t) == 0 && t.State == app.TaskRunning {
		delete(d.running, t)
		d.requeueFailed([]*app.Task{t})
	}
	d.afterSlotFreed(at.exec)
}
