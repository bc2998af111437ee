package nic

// Cache is a set-associative on-NIC cache with LRU replacement, used for
// the MTT (memory translation table). Pythia's persistent covert channel
// works by evicting victim MTT entries and timing the refill; Ragnar's
// volatile channels do not rely on it, but the cache must exist for the
// baseline comparison and because cold-start misses shape real latency
// traces. QP/MR contexts live in the capacity-limited ContextCache below.
type Cache struct {
	sets int
	ways int
	// Way w of set s lives at index s*ways+w of each slice: three flat
	// allocations per cache instead of three per set.
	tags    []uint64
	valid   []bool
	lruTick []uint64
	tick    uint64

	hits   uint64
	misses uint64
}

// NewCache builds a cache with the given total entries and associativity.
// Entries must be a multiple of ways.
func NewCache(entries, ways int) *Cache {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("nic: cache entries must be a positive multiple of ways")
	}
	return &Cache{
		sets:    entries / ways,
		ways:    ways,
		tags:    make([]uint64, entries),
		valid:   make([]bool, entries),
		lruTick: make([]uint64, entries),
	}
}

func (c *Cache) set(key uint64) int { return int(mix(key) % uint64(c.sets)) }

// mix is a 64-bit finaliser (splitmix64) so dense keys spread across sets.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// setBase returns the flat index of way 0 of key's set.
func (c *Cache) setBase(key uint64) int { return c.set(key) * c.ways }

// Access touches key and reports whether it hit. On a miss the key is
// installed, evicting the set's LRU way.
func (c *Cache) Access(key uint64) bool {
	lo := c.setBase(key)
	tags, valid, lru := c.tags[lo:lo+c.ways], c.valid[lo:lo+c.ways], c.lruTick[lo:lo+c.ways]
	c.tick++
	for w := range tags {
		if valid[w] && tags[w] == key {
			lru[w] = c.tick
			c.hits++
			return true
		}
	}
	c.misses++
	victim := 0
	for w := 1; w < c.ways; w++ {
		if !valid[w] {
			victim = w
			break
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	if !valid[victim] {
		// Prefer an invalid way anywhere in the set.
		for w := range valid {
			if !valid[w] {
				victim = w
				break
			}
		}
	}
	tags[victim] = key
	valid[victim] = true
	lru[victim] = c.tick
	return false
}

// Contains reports whether key is resident without touching LRU state.
func (c *Cache) Contains(key uint64) bool {
	lo := c.setBase(key)
	for w := lo; w < lo+c.ways; w++ {
		if c.valid[w] && c.tags[w] == key {
			return true
		}
	}
	return false
}

// Evict removes key if resident, reporting whether it was.
func (c *Cache) Evict(key uint64) bool {
	lo := c.setBase(key)
	for w := lo; w < lo+c.ways; w++ {
		if c.valid[w] && c.tags[w] == key {
			c.valid[w] = false
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() { clear(c.valid) }

// Stats returns cumulative hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Sets returns the number of sets, Ways the associativity.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the cache associativity.
func (c *Cache) Ways() int { return c.ways }

// SetIndex returns the set a key maps to. Pythia-style attacks use this
// reverse-engineered mapping to build minimal eviction sets.
func (c *Cache) SetIndex(key uint64) int { return c.set(key) }

// MTTKey builds the translation-cache key for a page of an MR — the hash
// the TPU uses internally, which Pythia reverse engineering recovered.
func MTTKey(mrKey uint32, pageNumber uint64) uint64 {
	return uint64(mrKey)<<40 ^ pageNumber
}

// ---------------------------------------------------------------------------
// ICM context cache
// ---------------------------------------------------------------------------

// ContextCache is the capacity-limited on-NIC context store for QP and MR
// contexts (QPC/MPT): the ICM model. Unlike the set-associative Cache above
// (kept for the MTT, whose set-index mapping Pythia's eviction sets depend
// on), connection contexts on real adapters live in a fully-associative
// cached window over host ICM memory — what bounds an adapter is the total
// number of resident contexts, and a miss costs a DMA fetch over PCIe. That
// finite capacity is exactly the surface the noisy-neighbor exhaustion
// attacks target: an aggressor holding more QPs/MRs than fit evicts the
// victims' contexts, so every victim operation pays the fetch penalty.
//
// The cache is an LRU over a map plus an intrusive doubly-linked list of
// slab nodes: a hit is one map lookup and a list splice, with zero
// allocations (benchmark-guarded); misses reuse evicted slots once the
// cache reaches capacity. The slab and the map grow with the resident set
// rather than being sized to the capacity up front: a rig touches a few
// dozen contexts of a capacity in the thousands.
type ContextCache struct {
	capacity int
	nodes    []ctxNode
	index    map[uint64]int32
	head     int32 // MRU
	tail     int32 // LRU
	free     []int32

	hits      uint64
	misses    uint64
	evictions uint64
}

type ctxNode struct {
	key  uint64
	prev int32
	next int32
}

// NewContextCache builds a context cache holding up to entries contexts.
func NewContextCache(entries int) *ContextCache {
	if entries <= 0 {
		panic("nic: context cache capacity must be positive")
	}
	return &ContextCache{
		capacity: entries,
		index:    make(map[uint64]int32),
		head:     -1,
		tail:     -1,
	}
}

// QPCtxKey names a QP context in the shared ICM cache.
func QPCtxKey(qpn uint32) uint64 { return 1<<62 | uint64(qpn) }

// MRCtxKey names an MR (MPT) context in the shared ICM cache.
func MRCtxKey(rkey uint32) uint64 { return 2<<62 | uint64(rkey) }

// Access touches key and reports whether it hit. On a miss the key is
// installed as MRU; when the cache is at capacity the LRU context is
// evicted to make room (one eviction per faulting miss, never more).
func (c *ContextCache) Access(key uint64) bool {
	if i, ok := c.index[key]; ok {
		c.hits++
		c.moveToFront(i)
		return true
	}
	c.misses++
	var slot int32
	switch {
	case len(c.free) > 0:
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case len(c.nodes) < c.capacity:
		c.nodes = append(c.nodes, ctxNode{})
		slot = int32(len(c.nodes) - 1)
	default:
		slot = c.tail
		c.evictions++
		delete(c.index, c.nodes[slot].key)
		c.unlink(slot)
	}
	c.nodes[slot].key = key
	c.index[key] = slot
	c.pushFront(slot)
	return false
}

// Contains reports whether key is resident without touching LRU state.
func (c *ContextCache) Contains(key uint64) bool {
	_, ok := c.index[key]
	return ok
}

// Evict removes key if resident, reporting whether it was. Explicit
// invalidations (QP destroy, MR dereg) do not count as capacity evictions.
func (c *ContextCache) Evict(key uint64) bool {
	i, ok := c.index[key]
	if !ok {
		return false
	}
	delete(c.index, key)
	c.unlink(i)
	c.free = append(c.free, i)
	return true
}

// Flush invalidates every resident context. Counters are preserved.
func (c *ContextCache) Flush() {
	for key, i := range c.index {
		delete(c.index, key)
		c.free = append(c.free, i)
	}
	c.head, c.tail = -1, -1
}

// Len reports resident contexts; Cap the configured capacity.
func (c *ContextCache) Len() int { return len(c.index) }

// Cap returns the configured capacity.
func (c *ContextCache) Cap() int { return c.capacity }

// Stats returns cumulative hits, misses and capacity evictions. Every
// Access is exactly one hit or one miss, so hits+misses == lookups.
func (c *ContextCache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// Keys returns the resident keys in MRU→LRU order (tests pin the LRU
// replacement order with it).
func (c *ContextCache) Keys() []uint64 {
	out := make([]uint64, 0, len(c.index))
	for i := c.head; i >= 0; i = c.nodes[i].next {
		out = append(out, c.nodes[i].key)
	}
	return out
}

func (c *ContextCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *ContextCache) pushFront(i int32) {
	c.nodes[i].prev = -1
	c.nodes[i].next = c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *ContextCache) unlink(i int32) {
	p, nx := c.nodes[i].prev, c.nodes[i].next
	if p >= 0 {
		c.nodes[p].next = nx
	} else {
		c.head = nx
	}
	if nx >= 0 {
		c.nodes[nx].prev = p
	} else {
		c.tail = p
	}
}
