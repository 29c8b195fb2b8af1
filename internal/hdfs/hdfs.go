// Package hdfs models the distributed file system substrate the paper's
// cluster runs on (HDFS, §II / §IV-C).
//
// A NameNode manages the directory tree: files are split into fixed-size
// blocks, each replicated onto several DataNodes according to a pluggable
// placement policy. Custody's only dependency on the file system is the
// NameNode's Locations query ("Custody acquires the list of relevant
// DataNodes that store the input data blocks of jobs" — §IV-C), which this
// package answers exactly as HDFS would.
package hdfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/xrand"
)

// BlockID identifies a block cluster-wide.
type BlockID int

// DefaultBlockSize is the paper's standard configuration (§VI-A1): 128 MB.
const DefaultBlockSize int64 = 128 << 20

// DefaultReplication is the standard HDFS replication level (§VI-A1).
const DefaultReplication = 3

// Block is one fixed-size piece of a file.
type Block struct {
	ID    BlockID
	File  string
	Index int   // position within the file
	Size  int64 // bytes; the final block of a file may be short
}

// File is a named sequence of blocks.
type File struct {
	Name   string
	Size   int64
	Blocks []*Block
	// Accesses counts reads of any block of this file; consumed by the
	// popularity placement policy (Scarlett-style, §VII).
	Accesses int64
}

// DataNode tracks the blocks stored on one worker node.
type DataNode struct {
	Node      int
	Capacity  int64 // bytes; 0 means unlimited
	Used      int64
	blocks    map[BlockID]struct{}
	alive     bool
	suspended bool        // flaky: process up, refusing reads; heartbeats missed
	cache     *BlockCache // in-memory block cache; nil when the tier is disabled
}

// Cache returns the node's block cache, or nil when the cache tier is
// disabled (the zero-default configuration).
func (d *DataNode) Cache() *BlockCache { return d.cache }

// dropCached invalidates one cached block, if the cache tier is enabled —
// called wherever the node loses a replica, so "cached implies held" stays
// an invariant.
func (d *DataNode) dropCached(id BlockID) {
	if d.cache != nil {
		d.cache.Invalidate(id)
	}
}

// Holds reports whether the DataNode stores the block.
func (d *DataNode) Holds(b BlockID) bool {
	_, ok := d.blocks[b]
	return ok
}

// BlockCount returns the number of block replicas stored on the DataNode.
func (d *DataNode) BlockCount() int { return len(d.blocks) }

// Alive reports whether the DataNode is in service (up and not suspended).
func (d *DataNode) Alive() bool { return d.alive && !d.suspended }

// Suspended reports whether the DataNode is flaking (up but not serving).
func (d *DataNode) Suspended() bool { return d.suspended }

// NameNode is the metadata service: file → blocks and block → replicas.
type NameNode struct {
	files     map[string]*File
	blocks    map[BlockID]*Block
	locations map[BlockID][]int
	pending   map[BlockID][]int // re-replication targets in flight, not yet readable
	stale     map[BlockID][]int // frozen Locations answers; nil when metadata is fresh
	datanodes []*DataNode
	racks     []int // node → rack
	policy    PlacementPolicy
	rng       *xrand.Rand
	nextBlock BlockID

	BlockSize   int64
	Replication int
}

// Option configures a NameNode.
type Option func(*NameNode)

// WithBlockSize overrides the default 128 MB block size.
func WithBlockSize(s int64) Option {
	return func(nn *NameNode) { nn.BlockSize = s }
}

// WithReplication overrides the default replication factor of 3.
func WithReplication(r int) Option {
	return func(nn *NameNode) { nn.Replication = r }
}

// WithPolicy sets the block placement policy.
func WithPolicy(p PlacementPolicy) Option {
	return func(nn *NameNode) { nn.policy = p }
}

// WithRacks assigns nodes to racks round-robin, rackSize nodes per rack.
func WithRacks(rackSize int) Option {
	return func(nn *NameNode) {
		if rackSize <= 0 {
			rackSize = len(nn.datanodes)
		}
		for i := range nn.racks {
			nn.racks[i] = i / rackSize
		}
	}
}

// WithBlockCache attaches an in-memory block cache of the given byte
// capacity to every DataNode. An empty policy defaults to CacheLRU. With no
// cache attached (the default) every cache query answers cold and the read
// path is byte-identical to the cacheless simulation.
func WithBlockCache(bytes int64, policy CachePolicy) Option {
	return func(nn *NameNode) {
		for _, d := range nn.datanodes {
			d.cache = NewBlockCache(bytes, policy)
		}
	}
}

// WithCapacity sets a per-node storage capacity in bytes.
func WithCapacity(bytes int64) Option {
	return func(nn *NameNode) {
		for _, d := range nn.datanodes {
			d.Capacity = bytes
		}
	}
}

// NewNameNode creates a NameNode managing n DataNodes.
func NewNameNode(n int, rng *xrand.Rand, opts ...Option) *NameNode {
	if n <= 0 {
		panic("hdfs: NewNameNode with n <= 0")
	}
	nn := &NameNode{
		files:       make(map[string]*File),
		blocks:      make(map[BlockID]*Block),
		locations:   make(map[BlockID][]int),
		pending:     make(map[BlockID][]int),
		racks:       make([]int, n),
		rng:         rng.Fork("hdfs"),
		BlockSize:   DefaultBlockSize,
		Replication: DefaultReplication,
	}
	for i := 0; i < n; i++ {
		nn.datanodes = append(nn.datanodes, &DataNode{
			Node:   i,
			blocks: map[BlockID]struct{}{},
			alive:  true,
		})
	}
	nn.policy = RandomPolicy{}
	for _, o := range opts {
		o(nn)
	}
	return nn
}

// Nodes returns the number of DataNodes.
func (nn *NameNode) Nodes() int { return len(nn.datanodes) }

// Rack returns the rack id of a node.
func (nn *NameNode) Rack(node int) int { return nn.racks[node] }

// DataNode returns the DataNode state for a node.
func (nn *NameNode) DataNode(node int) *DataNode { return nn.datanodes[node] }

// CacheEnabled reports whether the block-cache tier is attached.
func (nn *NameNode) CacheEnabled() bool { return nn.datanodes[0].cache != nil }

// Cache returns a node's block cache, or nil when the tier is disabled.
func (nn *NameNode) Cache(node int) *BlockCache { return nn.datanodes[node].cache }

// CacheContains reports whether a node's cache holds the block warm, without
// touching recency or hit/miss accounting. Always false when the tier is
// disabled — warm-replica preferences degrade to their fallbacks.
func (nn *NameNode) CacheContains(node int, id BlockID) bool {
	c := nn.datanodes[node].cache
	return c != nil && c.Contains(id)
}

// ErrExists is returned by Create when the file name is taken.
var ErrExists = errors.New("hdfs: file exists")

// ErrNotFound is returned when a file or block does not exist.
var ErrNotFound = errors.New("hdfs: not found")

// ErrNoSpace is returned when placement cannot find enough capacity.
var ErrNoSpace = errors.New("hdfs: insufficient datanode capacity")

// Create writes a new file of the given size, splitting it into blocks and
// placing replicas via the placement policy.
func (nn *NameNode) Create(name string, size int64) (*File, error) {
	if _, ok := nn.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("hdfs: invalid file size %d", size)
	}
	f := &File{Name: name, Size: size}
	remaining := size
	idx := 0
	for remaining > 0 {
		bs := nn.BlockSize
		if remaining < bs {
			bs = remaining
		}
		b := &Block{ID: nn.nextBlock, File: name, Index: idx, Size: bs}
		nn.nextBlock++
		nodes, err := nn.policy.Place(nn, b, nn.Replication)
		if err != nil {
			return nil, err
		}
		for _, node := range nodes {
			nn.addReplica(b, node)
		}
		nn.blocks[b.ID] = b
		f.Blocks = append(f.Blocks, b)
		remaining -= bs
		idx++
	}
	nn.files[name] = f
	return f, nil
}

func (nn *NameNode) addReplica(b *Block, node int) {
	d := nn.datanodes[node]
	if d.Holds(b.ID) {
		return
	}
	d.blocks[b.ID] = struct{}{}
	d.Used += b.Size
	nn.locations[b.ID] = append(nn.locations[b.ID], node)
}

// Open returns the file metadata.
func (nn *NameNode) Open(name string) (*File, error) {
	f, ok := nn.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f, nil
}

// Exists reports whether a file exists.
func (nn *NameNode) Exists(name string) bool {
	_, ok := nn.files[name]
	return ok
}

// Block returns the metadata for a block id.
func (nn *NameNode) Block(id BlockID) (*Block, error) {
	b, ok := nn.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrNotFound, id)
	}
	return b, nil
}

// Locations returns the nodes holding live replicas of a block. This is the
// query Custody issues before allocation (§IV-C). The returned slice is a
// copy; callers may mutate it. During a stale-metadata window (BeginStale)
// the answer is frozen at the snapshot taken when the window opened, so it
// may name nodes that have since died or flaked.
func (nn *NameNode) Locations(id BlockID) []int {
	if nn.stale != nil {
		if locs, ok := nn.stale[id]; ok {
			return append([]int(nil), locs...)
		}
		// Blocks created after the snapshot fall through to fresh answers.
	}
	return nn.liveLocations(id)
}

// liveLocations is the always-fresh truth, immune to stale windows.
func (nn *NameNode) liveLocations(id BlockID) []int {
	locs := nn.locations[id]
	out := make([]int, 0, len(locs))
	for _, node := range locs {
		if d := nn.datanodes[node]; d.alive && !d.suspended {
			out = append(out, node)
		}
	}
	return out
}

// ReplicaOn reports whether Locations(id) would name node, stale-metadata
// window included, without building the list.
func (nn *NameNode) ReplicaOn(id BlockID, node int) bool {
	if locs, ok := nn.stale[id]; ok {
		return slices.Contains(locs, node)
	}
	return slices.Contains(nn.locations[id], node) && nn.datanodes[node].Alive()
}

// HasReplica reports whether Locations(id) would be non-empty, stale-metadata
// window included, without building the list.
func (nn *NameNode) HasReplica(id BlockID) bool {
	if locs, ok := nn.stale[id]; ok {
		return len(locs) > 0
	}
	for _, node := range nn.locations[id] {
		if nn.datanodes[node].Alive() {
			return true
		}
	}
	return false
}

// BeginStale freezes the metadata clients see: subsequent Locations calls
// answer from a snapshot taken now, lagging reality until EndStale. Models a
// NameNode that has not yet processed heartbeat losses/recoveries. Returns
// false if a stale window is already open.
func (nn *NameNode) BeginStale() bool {
	if nn.stale != nil {
		return false
	}
	nn.stale = make(map[BlockID][]int, len(nn.blocks))
	for id := range nn.blocks {
		nn.stale[id] = nn.liveLocations(id)
	}
	return true
}

// EndStale restores fresh metadata. Returns false if no window was open.
func (nn *NameNode) EndStale() bool {
	if nn.stale == nil {
		return false
	}
	nn.stale = nil
	return true
}

// Stale reports whether a stale-metadata window is open.
func (nn *NameNode) Stale() bool { return nn.stale != nil }

// Suspend marks a DataNode flaky: it stops serving reads and drops out of
// fresh Locations answers, but keeps its on-disk replicas. Returns false if
// the node is already suspended or dead (no-op).
func (nn *NameNode) Suspend(node int) bool {
	d := nn.datanodes[node]
	if d.suspended || !d.alive {
		return false
	}
	d.suspended = true
	return true
}

// Resume clears a Suspend. Returns false if the node was not suspended.
func (nn *NameNode) Resume(node int) bool {
	d := nn.datanodes[node]
	if !d.suspended {
		return false
	}
	d.suspended = false
	return true
}

// RecordAccess notes a read of a block, feeding popularity statistics.
func (nn *NameNode) RecordAccess(id BlockID) {
	if b, ok := nn.blocks[id]; ok {
		nn.files[b.File].Accesses++
	}
}

// Delete removes a file and all of its replicas.
func (nn *NameNode) Delete(name string) error {
	f, ok := nn.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for _, b := range f.Blocks {
		for _, node := range nn.locations[b.ID] {
			d := nn.datanodes[node]
			if d.Holds(b.ID) {
				delete(d.blocks, b.ID)
				d.Used -= b.Size
			}
			d.dropCached(b.ID)
		}
		delete(nn.locations, b.ID)
		delete(nn.blocks, b.ID)
		delete(nn.pending, b.ID) // a planned copy of a deleted block has nothing to commit
	}
	delete(nn.files, name)
	return nil
}

// ReplicaCopy records one re-replication transfer: the block is copied from
// a surviving replica holder (From) to a new node (To).
type ReplicaCopy struct {
	Block BlockID
	Size  int64
	From  int
	To    int
}

// Decommission marks a node dead and plans re-replication of its blocks so
// every block regains its target replication. The planned copies are
// returned as *pending* replicas: the new replica only becomes readable
// when the caller finishes the transfer and calls CommitReplica (or gives
// up with AbortReplica). Callers charge the transfer to the network and
// commit on completion — fire-and-forget registration would let tasks read
// replicas whose bytes have not arrived yet.
func (nn *NameNode) Decommission(node int) ([]ReplicaCopy, error) {
	d := nn.datanodes[node]
	if !d.alive {
		return nil, fmt.Errorf("hdfs: node %d already decommissioned", node)
	}
	d.alive = false
	// Coherence rule: a dead node's in-memory cache is gone. Recommission
	// brings the node back cold; a Suspend/Resume flake (process up) keeps
	// its cache warm.
	if d.cache != nil {
		d.cache.Clear()
	}
	var copies []ReplicaCopy
	ids := make([]BlockID, 0, len(d.blocks))
	for id := range d.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b := nn.blocks[id]
		live := nn.liveLocations(id)
		if len(live)+len(nn.pending[id]) >= nn.Replication || len(live) == 0 {
			continue // already replicated (or being re-replicated) enough, or no surviving source
		}
		exclude := map[int]bool{}
		for _, n := range nn.locations[id] {
			exclude[n] = true
		}
		for _, n := range nn.pending[id] {
			exclude[n] = true
		}
		target, err := nn.pickNode(b.Size, exclude)
		if err != nil {
			continue // cluster too full or too small; block stays under-replicated
		}
		nn.pending[id] = append(nn.pending[id], target)
		copies = append(copies, ReplicaCopy{Block: id, Size: b.Size, From: live[0], To: target})
	}
	return copies, nil
}

// CommitReplica registers a pending re-replication target as a readable
// replica: the transfer planned by Decommission has delivered its bytes.
func (nn *NameNode) CommitReplica(id BlockID, node int) error {
	b, ok := nn.blocks[id]
	if !ok {
		return fmt.Errorf("%w: block %d", ErrNotFound, id)
	}
	if !nn.dropPending(id, node) {
		return fmt.Errorf("hdfs: no pending replica of block %d on node %d", id, node)
	}
	if !nn.datanodes[node].alive {
		return fmt.Errorf("hdfs: pending replica target node %d died before commit", node)
	}
	nn.addReplica(b, node)
	return nil
}

// AbortReplica cancels a pending re-replication target (the transfer was
// abandoned, e.g. its source or destination died). No-op if not pending.
func (nn *NameNode) AbortReplica(id BlockID, node int) {
	nn.dropPending(id, node)
}

func (nn *NameNode) dropPending(id BlockID, node int) bool {
	for i, n := range nn.pending[id] {
		if n == node {
			nn.pending[id] = append(nn.pending[id][:i], nn.pending[id][i+1:]...)
			if len(nn.pending[id]) == 0 {
				delete(nn.pending, id)
			}
			return true
		}
	}
	return false
}

// PendingReplicas returns the in-flight re-replication targets for a block
// (copy; callers may mutate).
func (nn *NameNode) PendingReplicas(id BlockID) []int {
	return append([]int(nil), nn.pending[id]...)
}

// PendingBlockIDs returns the blocks with in-flight re-replications, sorted.
func (nn *NameNode) PendingBlockIDs() []BlockID {
	out := make([]BlockID, 0, len(nn.pending))
	for id := range nn.pending {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RegisteredReplicas returns the number of registered replicas of a block,
// counting those on dead or suspended nodes (data not lost, just
// unreachable) but not pending transfers.
func (nn *NameNode) RegisteredReplicas(id BlockID) int { return len(nn.locations[id]) }

// Recommission brings a node back into service. Its old replicas become
// visible again.
func (nn *NameNode) Recommission(node int) {
	nn.datanodes[node].alive = true
}

// pickNode selects a live node with free capacity, uniformly at random,
// excluding the given set.
func (nn *NameNode) pickNode(size int64, exclude map[int]bool) (int, error) {
	var candidates []int
	for _, d := range nn.datanodes {
		if !d.alive || d.suspended || exclude[d.Node] {
			continue
		}
		if d.Capacity > 0 && d.Used+size > d.Capacity {
			continue
		}
		candidates = append(candidates, d.Node)
	}
	if len(candidates) == 0 {
		return 0, ErrNoSpace
	}
	return candidates[nn.rng.Intn(len(candidates))], nil
}

// ReplicaCount returns the number of live replicas of a block (fresh truth,
// immune to stale-metadata windows).
func (nn *NameNode) ReplicaCount(id BlockID) int { return len(nn.liveLocations(id)) }

// Files returns the names of all files, sorted.
func (nn *NameNode) Files() []string {
	out := make([]string, 0, len(nn.files))
	for name := range nn.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalBlocks returns the number of distinct blocks in the namespace.
func (nn *NameNode) TotalBlocks() int { return len(nn.blocks) }

// BalanceReport summarizes how evenly replicas are spread over DataNodes.
type BalanceReport struct {
	MinReplicas, MaxReplicas int
	MeanReplicas             float64
}

// Balance computes a replica-distribution report over live nodes.
func (nn *NameNode) Balance() BalanceReport {
	r := BalanceReport{MinReplicas: int(^uint(0) >> 1)}
	total, n := 0, 0
	for _, d := range nn.datanodes {
		if !d.alive {
			continue
		}
		c := d.BlockCount()
		if c < r.MinReplicas {
			r.MinReplicas = c
		}
		if c > r.MaxReplicas {
			r.MaxReplicas = c
		}
		total += c
		n++
	}
	if n > 0 {
		r.MeanReplicas = float64(total) / float64(n)
	} else {
		r.MinReplicas = 0
	}
	return r
}
