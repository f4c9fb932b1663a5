package cache

import (
	"cmp"
	"slices"

	"camp/internal/nheap"
)

// LFU evicts the least frequently used item, breaking ties by recency. It
// rounds out the §5 baseline set: pure frequency, no recency adaptation, no
// cost or size awareness beyond byte accounting.
//
// It is an Ordering over a heap of nodes: a node's H word is its use count,
// Seq its last touch and Aux its heap slot. The embedded Keyed makes it a
// Policy.
type LFU struct {
	Keyed
	capacity int64
	used     int64
	heap     *nheap.Heap[*Node]
	tick     uint64
	stats    Stats
	onEvict  func(*Node)
}

var (
	_ Policy   = (*LFU)(nil)
	_ Ordering = (*LFU)(nil)
)

// NewLFU returns an LFU policy with the given byte capacity.
func NewLFU(capacity int64) *LFU {
	c := &LFU{
		capacity: max(capacity, 0),
		heap: nheap.New(func(a, b *Node) bool { return lfuCompare(a, b) < 0 },
			nheap.WithIndexTracking(func(n *Node, i int) { n.Aux = uint64(i) })),
	}
	c.Keyed = NewKeyed(c, &c.stats)
	return c
}

// lfuCompare orders nodes by use count, ties broken by the older touch.
func lfuCompare(a, b *Node) int {
	return cmp.Or(cmp.Compare(a.H, b.H), cmp.Compare(a.Seq, b.Seq))
}

// Name implements Ordering.
func (c *LFU) Name() string { return "lfu" }

// use records one more use of n: a touch, an insert or an update.
func (c *LFU) use(n *Node) {
	n.H++
	c.tick++
	n.Seq = c.tick
}

// Touch implements Ordering.
func (c *LFU) Touch(n *Node) {
	c.use(n)
	c.heap.Fix(int(n.Aux))
	c.stats.Hits++
}

// Insert implements Ordering. An update keeps the count its node left
// behind, so it counts as one more use.
func (c *LFU) Insert(n *Node) bool {
	if n.Size > c.capacity {
		c.stats.Rejected++
		return false
	}
	for c.used+n.Size > c.capacity {
		if c.Evict() == nil {
			c.stats.Rejected++
			return false
		}
	}
	c.use(n)
	c.heap.Push(n)
	c.used += n.Size
	c.stats.Sets++
	return true
}

// InsertAt implements Ordering: LFU's counts are not pinned.
func (c *LFU) InsertAt(n *Node, _, _ uint64) bool { return c.Insert(n) }

// Remove implements Ordering.
func (c *LFU) Remove(n *Node) {
	c.heap.Remove(int(n.Aux))
	c.used -= n.Size
}

// Victim implements Ordering, with urgency 0.
func (c *LFU) Victim() (*Node, float64) {
	n, _ := c.heap.Peek()
	return n, 0
}

// Evict implements Ordering.
func (c *LFU) Evict() *Node {
	if c.heap.Len() == 0 {
		return nil
	}
	n := c.heap.Pop()
	c.used -= n.Size
	c.stats.Evictions++
	c.stats.EvictedBytes += uint64(n.Size)
	if c.onEvict != nil {
		c.onEvict(n)
	}
	return n
}

// Visit implements Ordering: a sorted copy of the heap, least used first.
func (c *LFU) Visit(visit func(n *Node, prio, class uint64) bool) {
	nodes := slices.Clone(c.heap.Items())
	slices.SortFunc(nodes, lfuCompare)
	for _, n := range nodes {
		if !visit(n, 0, 0) {
			return
		}
	}
}

// Prioritized implements Ordering.
func (c *LFU) Prioritized() bool { return false }

// Scale implements Ordering.
func (c *LFU) Scale() (uint64, bool) { return 0, false }

// RestoreScale implements Ordering.
func (c *LFU) RestoreScale(uint64) {}

// Len implements Ordering.
func (c *LFU) Len() int { return c.heap.Len() }

// Used implements Ordering.
func (c *LFU) Used() int64 { return c.used }

// Capacity implements Ordering.
func (c *LFU) Capacity() int64 { return c.capacity }

// Stats implements Ordering.
func (c *LFU) Stats() Stats { return c.stats }

// OnEvict implements Ordering.
func (c *LFU) OnEvict(fn func(*Node)) { c.onEvict = fn }
