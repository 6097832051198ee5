package nic

// ContextCache is an LRU cache of queue-pair contexts, modeling the
// RNIC's small on-chip SRAM (Section 3.3). Each verb posted on (or
// arriving for) a QP must have that QP's context on chip; a miss forces a
// PCIe fetch from host memory.
//
// Requester-side send contexts are large (WQE scheduling state), so few
// fit; responder-side receive contexts are small, so many more fit —
// which is exactly why inbound WRITEs scale to hundreds of clients while
// outbound WRITEs collapse (Figure 6). The same cache is the mechanism
// behind Figure 12's client-scaling cliff: past RecvCtxCap concurrently
// active client QPs, every arrival misses (docs/SCALABILITY.md).
type ContextCache struct {
	cap int
	// The LRU list is intrusive: entries live in nodes and link by
	// index, most recent at head. An eviction reuses the victim's node
	// for the incoming key, so a full cache touches no heap on a miss.
	nodes      []ctxNode
	head, tail int32 // -1 when empty
	byKey      map[uint64]int32
	hits       uint64
	misses     uint64
	evictions  uint64

	// Per-key accounting: which QP contexts are thrashing. Keys are the
	// same global QP keys callers pass to Touch.
	missByKey  map[uint64]uint64
	evictByKey map[uint64]uint64

	// onEvict (optional) observes each eviction's victim key; the NIC
	// hangs telemetry on it.
	onEvict func(victim uint64)
}

// NewContextCache returns a cache holding up to capacity contexts.
// A capacity <= 0 means unbounded (never misses after first touch).
func NewContextCache(capacity int) *ContextCache {
	return &ContextCache{
		cap:        capacity,
		head:       -1,
		tail:       -1,
		byKey:      make(map[uint64]int32),
		missByKey:  make(map[uint64]uint64),
		evictByKey: make(map[uint64]uint64),
	}
}

// OnEvict registers fn to run with each eviction's victim key.
func (c *ContextCache) OnEvict(fn func(victim uint64)) { c.onEvict = fn }

// ctxNode is one resident context in the LRU list.
type ctxNode struct {
	key        uint64
	prev, next int32 // -1 at the ends
}

// Touch records an access to the context for key and reports whether it
// was resident (true = hit). On a miss the context is fetched and the
// least recently used entry evicted if the cache is full.
//
//herd:hotpath
func (c *ContextCache) Touch(key uint64) bool {
	if i, ok := c.byKey[key]; ok {
		c.unlink(i)
		c.pushFront(i)
		c.hits++
		return true
	}
	c.misses++
	c.missByKey[key]++
	var i int32
	if c.cap > 0 && len(c.byKey) >= c.cap {
		i = c.tail
		c.unlink(i)
		victim := c.nodes[i].key
		delete(c.byKey, victim)
		c.evictions++
		c.evictByKey[victim]++
		if c.onEvict != nil {
			c.onEvict(victim)
		}
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, ctxNode{})
	}
	c.nodes[i].key = key
	c.pushFront(i)
	c.byKey[key] = i
	return false
}

// unlink removes node i from the LRU list.
//
//herd:hotpath
func (c *ContextCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// pushFront links node i in as the most recently used.
//
//herd:hotpath
func (c *ContextCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Len returns the number of resident contexts.
func (c *ContextCache) Len() int { return len(c.byKey) }

// Resident reports whether key's context is currently on chip, without
// recording an access.
func (c *ContextCache) Resident(key uint64) bool {
	_, ok := c.byKey[key]
	return ok
}

// Hits and Misses report access statistics.
func (c *ContextCache) Hits() uint64   { return c.hits }
func (c *ContextCache) Misses() uint64 { return c.misses }

// Evictions reports how many resident contexts were displaced to make
// room for missing ones.
func (c *ContextCache) Evictions() uint64 { return c.evictions }

// MissesFor reports how many accesses to key's context missed.
func (c *ContextCache) MissesFor(key uint64) uint64 { return c.missByKey[key] }

// EvictionsFor reports how many times key's context was the LRU victim.
func (c *ContextCache) EvictionsFor(key uint64) uint64 { return c.evictByKey[key] }

// HitRate returns hits / accesses, or 1 if there were no accesses.
func (c *ContextCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 1
	}
	return float64(c.hits) / float64(total)
}
