package cache

import "camp/internal/nheap"

// LFU evicts the least frequently used item, breaking ties by recency. It
// rounds out the §5 baseline set: pure frequency, no recency adaptation, no
// cost or size awareness beyond byte accounting.
type LFU struct {
	capacity int64
	used     int64
	items    map[string]*lfuEntry
	heap     *nheap.Heap[*lfuEntry]
	tick     uint64
	stats    Stats
	onEvict  EvictFunc
}

type lfuEntry struct {
	key     string
	size    int64
	cost    int64
	freq    uint64
	touched uint64 // recency tie-break
	heapIdx int
}

var _ Policy = (*LFU)(nil)

// NewLFU returns an LFU policy with the given byte capacity.
func NewLFU(capacity int64) *LFU {
	if capacity < 0 {
		capacity = 0
	}
	return &LFU{
		capacity: capacity,
		items:    make(map[string]*lfuEntry),
		heap: nheap.New(
			func(a, b *lfuEntry) bool {
				if a.freq != b.freq {
					return a.freq < b.freq
				}
				return a.touched < b.touched
			},
			nheap.WithIndexTracking(func(e *lfuEntry, i int) { e.heapIdx = i }),
		),
	}
}

// Name implements Policy.
func (c *LFU) Name() string { return "lfu" }

// Get implements Policy.
func (c *LFU) Get(key string) bool {
	e, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.touch(e)
	c.stats.Hits++
	return true
}

func (c *LFU) touch(e *lfuEntry) {
	e.freq++
	c.tick++
	e.touched = c.tick
	c.heap.Fix(e.heapIdx)
}

// Set implements Policy.
func (c *LFU) Set(key string, size, cost int64) bool {
	if size < 0 {
		size = 0
	}
	if e, ok := c.items[key]; ok {
		// Detach first so eviction can never pick the entry itself.
		c.remove(e)
		if size > c.capacity || !c.makeRoom(size) {
			c.stats.Rejected++
			return false
		}
		e.size, e.cost = size, cost
		e.freq++
		c.tick++
		e.touched = c.tick
		e.heapIdx = -1
		c.heap.Push(e)
		c.items[key] = e
		c.used += size
		c.stats.Updates++
		return true
	}
	if size > c.capacity || !c.makeRoom(size) {
		c.stats.Rejected++
		return false
	}
	c.tick++
	e := &lfuEntry{key: key, size: size, cost: cost, freq: 1, touched: c.tick, heapIdx: -1}
	c.heap.Push(e)
	c.items[key] = e
	c.used += size
	c.stats.Sets++
	return true
}

func (c *LFU) makeRoom(need int64) bool {
	for c.used+need > c.capacity {
		if _, ok := c.EvictOne(); !ok {
			return false
		}
	}
	return true
}

// EvictOne removes the preferred victim, firing the eviction callback.
func (c *LFU) EvictOne() (Entry, bool) {
	if c.heap.Len() == 0 {
		return Entry{}, false
	}
	victim := c.heap.Pop()
	delete(c.items, victim.key)
	c.used -= victim.size
	victim.heapIdx = -1
	c.stats.Evictions++
	c.stats.EvictedBytes += uint64(victim.size)
	e := Entry{Key: victim.key, Size: victim.size, Cost: victim.cost}
	if c.onEvict != nil {
		c.onEvict(e)
	}
	return e, true
}

// Delete implements Policy.
func (c *LFU) Delete(key string) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.remove(e)
	return true
}

func (c *LFU) remove(e *lfuEntry) {
	c.heap.Remove(e.heapIdx)
	delete(c.items, e.key)
	c.used -= e.size
}

// Contains implements Policy.
func (c *LFU) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Peek implements Policy.
func (c *LFU) Peek(key string) (Entry, bool) {
	e, ok := c.items[key]
	if !ok {
		return Entry{}, false
	}
	return Entry{Key: e.key, Size: e.size, Cost: e.cost}, true
}

// Len implements Policy.
func (c *LFU) Len() int { return len(c.items) }

// Used implements Policy.
func (c *LFU) Used() int64 { return c.used }

// Capacity implements Policy.
func (c *LFU) Capacity() int64 { return c.capacity }

// Stats implements Policy.
func (c *LFU) Stats() Stats { return c.stats }

// SetEvictFunc implements Policy.
func (c *LFU) SetEvictFunc(fn EvictFunc) { c.onEvict = fn }
