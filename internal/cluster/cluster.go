// Package cluster models the compute substrate: worker nodes that launch
// executor processes.
//
// Following the paper's system model (§III-A): each worker node can launch
// multiple executors based on its computation resources; each executor has
// identical computation capacity and runs one task at a time. An executor is
// allocated to at most one application at any instant (constraint (2)), and
// co-located executors share the node's datasets (container isolation, §II).
package cluster

import (
	"fmt"
)

// AppID identifies an application. NoApp marks an unallocated executor.
type AppID int

// NoApp is the owner of an executor that is not allocated to any application.
const NoApp AppID = -1

// Node is one worker machine.
type Node struct {
	ID   int
	Rack int
	// Speed scales the node's compute rate (1.0 = nominal; 0.5 = half
	// speed). Heterogeneous clusters produce natural stragglers.
	Speed float64

	executors []*Executor
}

// Executors returns the executors resident on the node.
func (n *Node) Executors() []*Executor { return n.executors }

// Executor is a long-lived worker process that runs tasks for the
// application it is allocated to.
type Executor struct {
	ID   int
	Node *Node

	owner   AppID
	running int // tasks currently executing (0 or 1 in the paper's model)
	slots   int
	dead    bool
}

// Alive reports whether the executor's node is in service.
func (e *Executor) Alive() bool { return !e.dead }

// Owner returns the application the executor is allocated to, or NoApp.
func (e *Executor) Owner() AppID { return e.owner }

// Busy reports whether a task is currently running on the executor.
func (e *Executor) Busy() bool { return e.running >= e.slots }

// Running returns the number of tasks currently executing.
func (e *Executor) Running() int { return e.running }

// Slots returns the executor's concurrent task capacity.
func (e *Executor) Slots() int { return e.slots }

// FreeSlots returns the number of tasks the executor could accept now.
func (e *Executor) FreeSlots() int { return e.slots - e.running }

// Cluster is a fixed set of nodes, each hosting a fixed set of executor
// "seats". Managers allocate seats to applications and release them; the
// executor processes themselves are modeled as always resident (launching a
// JVM is charged via Config.ExecutorStartupSec by the driver, if desired).
type Cluster struct {
	nodes     []*Node
	executors []*Executor
}

// Config controls cluster construction.
type Config struct {
	Nodes            int
	ExecutorsPerNode int // paper default: 2 (§VI-A1)
	SlotsPerExecutor int // paper model: 1 (§III-A)
	RackSize         int // nodes per rack; 0 → single rack

	// SlowNodeFraction makes this share of nodes run slowFactor× slower
	// (deterministically spread: every ⌈1/fraction⌉-th node). Zero keeps
	// the cluster homogeneous, the paper's configuration.
	SlowNodeFraction float64
}

// slowFactor is how many times slower a slow node computes and reads its
// disk (Config.SlowNodeFraction).
const slowFactor float64 = 3

// New builds a cluster from the config.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: Nodes <= 0")
	}
	if cfg.ExecutorsPerNode <= 0 {
		cfg.ExecutorsPerNode = 2
	}
	if cfg.SlotsPerExecutor <= 0 {
		cfg.SlotsPerExecutor = 1
	}
	rackSize := cfg.RackSize
	if rackSize <= 0 {
		rackSize = cfg.Nodes
	}
	slowEvery := 0
	if cfg.SlowNodeFraction > 0 {
		slowEvery = int(1 / cfg.SlowNodeFraction)
		if slowEvery < 1 {
			slowEvery = 1
		}
	}
	c := &Cluster{}
	eid := 0
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{ID: i, Rack: i / rackSize, Speed: 1}
		if slowEvery > 0 && i%slowEvery == slowEvery-1 {
			n.Speed = 1 / slowFactor
		}
		for j := 0; j < cfg.ExecutorsPerNode; j++ {
			e := &Executor{
				ID:    eid,
				Node:  n,
				owner: NoApp,
				slots: cfg.SlotsPerExecutor,
			}
			eid++
			n.executors = append(n.executors, e)
			c.executors = append(c.executors, e)
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Executors returns all executors, ordered by ID.
func (c *Cluster) Executors() []*Executor { return c.executors }

// Executor returns the executor with the given ID.
func (c *Cluster) Executor(id int) *Executor { return c.executors[id] }

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Allocate assigns an unallocated executor to an application.
func (c *Cluster) Allocate(e *Executor, app AppID) error {
	if app == NoApp {
		return fmt.Errorf("cluster: Allocate to NoApp")
	}
	if e.dead {
		return fmt.Errorf("cluster: executor %d is on a failed node", e.ID)
	}
	if e.owner != NoApp {
		return fmt.Errorf("cluster: executor %d already owned by app %d", e.ID, e.owner)
	}
	e.owner = app
	return nil
}

// FailNode takes a node out of service: its executors are forcibly freed
// (any tasks on them are the caller's responsibility to re-queue) and
// refuse allocation until RecoverNode. Returns the executors that were
// running tasks at failure time.
func (c *Cluster) FailNode(node int) []*Executor {
	var interrupted []*Executor
	for _, e := range c.nodes[node].executors {
		if e.running > 0 {
			interrupted = append(interrupted, e)
		}
		e.running = 0
		e.owner = NoApp
		e.dead = true
	}
	return interrupted
}

// RecoverNode returns a failed node's executors to the free pool.
func (c *Cluster) RecoverNode(node int) {
	for _, e := range c.nodes[node].executors {
		e.dead = false
	}
}

// NodeAlive reports whether any executor on the node is in service. FailNode
// and FailExecutor keep it in sync; a node with every executor dead counts
// as down.
func (c *Cluster) NodeAlive(node int) bool {
	for _, e := range c.nodes[node].executors {
		if !e.dead {
			return true
		}
	}
	return false
}

// FailExecutor crashes a single executor process without taking down its
// node — the finer-grained failure mode (an OOM-killed JVM, not a machine
// loss). Any task on it is the caller's responsibility to re-queue. Returns
// false if the executor was already dead (no-op).
func (c *Cluster) FailExecutor(e *Executor) bool {
	if e.dead {
		return false
	}
	e.running = 0
	e.owner = NoApp
	e.dead = true
	return true
}

// RecoverExecutor restarts a crashed executor, returning it to the free
// pool. Returns false if the executor was not dead (no-op).
func (c *Cluster) RecoverExecutor(e *Executor) bool {
	if !e.dead {
		return false
	}
	e.dead = false
	return true
}

// Release returns an executor to the free pool. The executor must be idle.
func (c *Cluster) Release(e *Executor) error {
	if e.owner == NoApp {
		return fmt.Errorf("cluster: executor %d is already free", e.ID)
	}
	if e.running > 0 {
		return fmt.Errorf("cluster: executor %d still running %d task(s)", e.ID, e.running)
	}
	e.owner = NoApp
	return nil
}

// StartTask marks a task as running on the executor.
func (c *Cluster) StartTask(e *Executor) error {
	if e.owner == NoApp {
		return fmt.Errorf("cluster: StartTask on unallocated executor %d", e.ID)
	}
	if e.Busy() {
		return fmt.Errorf("cluster: executor %d has no free slot", e.ID)
	}
	e.running++
	return nil
}

// FinishTask marks a task as done on the executor.
func (c *Cluster) FinishTask(e *Executor) error {
	if e.running <= 0 {
		return fmt.Errorf("cluster: FinishTask on idle executor %d", e.ID)
	}
	e.running--
	return nil
}

// Free returns all live unallocated executors, ordered by ID.
func (c *Cluster) Free() []*Executor { return c.AppendFree(nil) }

// AppendFree appends the live unallocated executors, ordered by ID, to dst
// and returns the extended slice.
func (c *Cluster) AppendFree(dst []*Executor) []*Executor {
	for _, e := range c.executors {
		if e.owner == NoApp && !e.dead {
			dst = append(dst, e)
		}
	}
	return dst
}

// Owned returns the executors allocated to an application, ordered by ID.
func (c *Cluster) Owned(app AppID) []*Executor { return c.AppendOwned(nil, app) }

// AppendOwned appends the executors allocated to an application, ordered by
// ID, to dst and returns the extended slice.
func (c *Cluster) AppendOwned(dst []*Executor, app AppID) []*Executor {
	for _, e := range c.executors {
		if e.owner == app {
			dst = append(dst, e)
		}
	}
	return dst
}

// OwnedCount returns the number of executors allocated to an application.
func (c *Cluster) OwnedCount(app AppID) int {
	n := 0
	for _, e := range c.executors {
		if e.owner == app {
			n++
		}
	}
	return n
}

// FreeOnNode returns the live unallocated executors on a node.
func (c *Cluster) FreeOnNode(node int) []*Executor {
	var out []*Executor
	for _, e := range c.nodes[node].executors {
		if e.owner == NoApp && !e.dead {
			out = append(out, e)
		}
	}
	return out
}

// TotalExecutors returns the executor count.
func (c *Cluster) TotalExecutors() int { return len(c.executors) }

// Validate checks internal consistency; used by tests and the driver's
// failure-injection harness.
func (c *Cluster) Validate() error {
	for _, e := range c.executors {
		if e.running < 0 || e.running > e.slots {
			return fmt.Errorf("executor %d running=%d slots=%d", e.ID, e.running, e.slots)
		}
		if e.owner == NoApp && e.running > 0 {
			return fmt.Errorf("executor %d free but running tasks", e.ID)
		}
		if e.dead && (e.owner != NoApp || e.running > 0) {
			return fmt.Errorf("executor %d dead but owner=%d running=%d", e.ID, e.owner, e.running)
		}
	}
	return nil
}
