package hdfs

import "sort"

// CachePolicy names a BlockCache eviction policy.
type CachePolicy string

const (
	// CacheLRU evicts the least recently touched block.
	CacheLRU CachePolicy = "lru"
	// Cache2Q is a simplified 2Q [Johnson & Shasha '94]: new blocks enter a
	// probationary FIFO (A1in, a quarter of the capacity) and only graduate
	// to the main LRU queue (Am) when re-referenced, so a one-pass scan
	// cannot flush the hot set.
	Cache2Q CachePolicy = "2q"
)

// ValidCachePolicy reports whether p names a supported eviction policy.
// The empty string is accepted as CacheLRU.
func ValidCachePolicy(p CachePolicy) bool {
	return p == "" || p == CacheLRU || p == Cache2Q
}

// cacheEntry is one cached block, threaded on an intrusive recency list.
type cacheEntry struct {
	id         BlockID
	size       int64
	prev, next *cacheEntry
	probation  bool // 2Q: still in the A1in FIFO, not yet re-referenced
}

// cacheList is a doubly-linked recency list: front is most recent (or most
// recently admitted, for the 2Q FIFO), back is the eviction victim.
type cacheList struct {
	head, tail *cacheEntry
}

func (l *cacheList) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *cacheList) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// BlockCache is a per-DataNode in-memory block cache. It is deterministic by
// construction: recency is tracked by list position, never by wall clock, so
// the eviction order is a pure function of the Touch/Admit call sequence.
//
// The cache never admits a block on lookup alone — the driver admits a block
// only on the node that actually served its bytes (reader on a local disk
// read, source on a remote read), which keeps "cached implies held" an
// invariant Driver.Audit can check.
type BlockCache struct {
	capacity int64
	policy   CachePolicy
	used     int64
	a1used   int64 // 2Q: bytes in the probationary FIFO
	a1cap    int64 // 2Q: probationary share of the capacity
	entries  map[BlockID]*cacheEntry
	a1, am   cacheList // LRU uses am only

	hits, misses, evictions int64
}

// NewBlockCache builds a cache holding at most capacity bytes. An empty
// policy defaults to CacheLRU; an unknown policy panics (callers validate
// user input with ValidCachePolicy first).
func NewBlockCache(capacity int64, policy CachePolicy) *BlockCache {
	if policy == "" {
		policy = CacheLRU
	}
	if policy != CacheLRU && policy != Cache2Q {
		panic("hdfs: unknown cache policy " + string(policy))
	}
	if capacity < 0 {
		capacity = 0
	}
	return &BlockCache{
		capacity: capacity,
		policy:   policy,
		a1cap:    capacity / 4,
		entries:  make(map[BlockID]*cacheEntry),
	}
}

// Capacity returns the configured byte capacity.
func (c *BlockCache) Capacity() int64 { return c.capacity }

// Used returns the bytes currently cached. Used never exceeds Capacity.
func (c *BlockCache) Used() int64 { return c.used }

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int { return len(c.entries) }

// Hits returns the number of Touch calls that found their block.
func (c *BlockCache) Hits() int64 { return c.hits }

// Misses returns the number of Touch calls that did not.
func (c *BlockCache) Misses() int64 { return c.misses }

// Evictions returns the number of blocks evicted to make room. Clear drops
// (coherence, not pressure) are not counted.
func (c *BlockCache) Evictions() int64 { return c.evictions }

// Contains reports whether the block is cached without touching recency or
// hit/miss accounting — the peek used by warm-replica selection and audits.
func (c *BlockCache) Contains(id BlockID) bool {
	_, ok := c.entries[id]
	return ok
}

// Touch records a lookup: on a hit the block's recency is renewed per the
// eviction policy and true is returned; on a miss false. Touch never admits —
// pair it with Admit on the node that served the read.
func (c *BlockCache) Touch(id BlockID) bool {
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		return false
	}
	c.hits++
	if e.probation {
		// 2Q: a re-reference graduates the block from the probationary
		// FIFO to the front of the main queue.
		c.a1.remove(e)
		e.probation = false
		c.a1used -= e.size
		c.am.pushFront(e)
	} else {
		c.am.remove(e)
		c.am.pushFront(e)
	}
	return true
}

// Admit inserts a block after a miss, evicting per the policy until it fits.
// Blocks larger than the whole cache are not admitted. Returns the number of
// blocks evicted.
func (c *BlockCache) Admit(id BlockID, size int64) int {
	if size > c.capacity || size <= 0 {
		return 0
	}
	if _, ok := c.entries[id]; ok {
		return 0
	}
	n := 0
	for c.used+size > c.capacity {
		c.evictOne()
		c.evictions++
		n++
	}
	e := &cacheEntry{id: id, size: size}
	c.entries[id] = e
	c.used += size
	if c.policy == Cache2Q {
		e.probation = true
		c.a1used += size
		c.a1.pushFront(e)
	} else {
		c.am.pushFront(e)
	}
	return n
}

// evictOne removes the policy's victim. Callers guarantee the cache is
// non-empty (used > 0).
func (c *BlockCache) evictOne() {
	var victim *cacheEntry
	// 2Q evicts from the probationary FIFO while it is over its share (or
	// the main queue is empty); LRU keeps everything in am.
	if c.a1.tail != nil && (c.a1used > c.a1cap || c.am.tail == nil) {
		victim = c.a1.tail
	} else {
		victim = c.am.tail
	}
	c.drop(victim)
}

// Clear empties the cache (node failure: the in-memory tier is gone).
// Returns the number of blocks dropped. Hit/miss/eviction counters are
// retained — they count events, not contents.
func (c *BlockCache) Clear() int {
	n := len(c.entries)
	c.entries = make(map[BlockID]*cacheEntry)
	c.a1, c.am = cacheList{}, cacheList{}
	c.used, c.a1used = 0, 0
	return n
}

func (c *BlockCache) drop(e *cacheEntry) {
	if e.probation {
		c.a1.remove(e)
		c.a1used -= e.size
	} else {
		c.am.remove(e)
	}
	delete(c.entries, e.id)
	c.used -= e.size
}

// Blocks returns the cached block IDs in ascending order — for audits and
// tests, not the hot path.
func (c *BlockCache) Blocks() []BlockID {
	out := make([]BlockID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
