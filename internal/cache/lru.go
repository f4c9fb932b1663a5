package cache

// LRU is the classic least-recently-used policy over variable-sized items:
// a single recency queue, evicting from the front (least recently used)
// until the incoming item fits. It ignores cost entirely, which is exactly
// the weakness CAMP addresses. It is an Ordering; the embedded Keyed makes
// it a Policy.
type LRU struct {
	Keyed
	capacity int64
	used     int64
	queue    Queue
	stats    Stats
}

var (
	_ Policy   = (*LRU)(nil)
	_ Ordering = (*LRU)(nil)
)

// NewLRU returns an LRU policy with the given byte capacity.
func NewLRU(capacity int64) *LRU {
	c := &LRU{capacity: max(capacity, 0)}
	c.Keyed = NewKeyed(c, &c.stats)
	return c
}

// Name implements Ordering.
func (c *LRU) Name() string { return "lru" }

// Insert implements Ordering.
func (c *LRU) Insert(n *Node) bool {
	if n.Size > c.capacity {
		c.stats.Rejected++
		return false
	}
	for c.used+n.Size > c.capacity {
		c.Evict()
	}
	c.queue.PushBack(n)
	c.used += n.Size
	c.stats.Sets++
	return true
}

// InsertAt implements Ordering: recency is LRU's whole state, so replaying
// in visitation order restores it and the pinned priority means nothing.
func (c *LRU) InsertAt(n *Node, _, _ uint64) bool { return c.Insert(n) }

// Touch implements Ordering.
func (c *LRU) Touch(n *Node) {
	c.queue.MoveToBack(n)
	c.stats.Hits++
}

// Remove implements Ordering.
func (c *LRU) Remove(n *Node) {
	c.queue.Remove(n)
	c.used -= n.Size
}

// Victim implements Ordering: the least recently used item, with urgency 0 —
// LRU has no notion of one victim being worth more than another.
func (c *LRU) Victim() (*Node, float64) { return c.queue.Front(), 0 }

// Evict implements Ordering: it evicts the least recently used item.
func (c *LRU) Evict() *Node {
	n, _ := c.Victim()
	if n == nil {
		return nil
	}
	c.Remove(n)
	c.stats.Evictions++
	c.stats.EvictedBytes += uint64(n.Size)
	c.NotifyEvict(n)
	return n
}

// Visit implements Ordering: the recency queue is the eviction order, least
// recently used first.
func (c *LRU) Visit(visit func(n *Node, prio, class uint64) bool) {
	for n := c.queue.Front(); n != nil && visit(n, 0, 0); n = n.Next() {
	}
}

// Len implements Ordering.
func (c *LRU) Len() int { return c.queue.Len() }

// Used implements Ordering.
func (c *LRU) Used() int64 { return c.used }

// Capacity implements Ordering.
func (c *LRU) Capacity() int64 { return c.capacity }

// Stats implements Ordering.
func (c *LRU) Stats() Stats { return c.stats }
