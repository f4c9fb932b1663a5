// Package core implements the paper's primary contribution — the Cost
// Adaptive Multi-queue eviction Policy (CAMP) — together with the
// Greedy-Dual-Size (GDS) reference algorithm it approximates.
//
// CAMP (§2 of the paper) maintains one LRU queue per rounded cost-to-size
// ratio plus a small d-ary heap over the queue heads. Because the global
// offset L only grows, items within a queue are automatically ordered by
// priority, so a hit is O(1) except in the rare case where the head of a
// queue changes; only then is the heap touched. Eviction pops the head of
// the heap-minimum queue. With precision p the eviction decisions are within
// a (1+2^(1-p)) factor of GDS's (Proposition 3), and with infinite precision
// they coincide with GDS over integerized ratios.
package core

import (
	"fmt"
	"math"

	"camp/internal/cache"
	"camp/internal/ilist"
	"camp/internal/nheap"
	"camp/internal/rounding"
)

// DefaultPrecision is the precision used throughout the paper's evaluation
// (Figures 5c, 5d, 6, 9 all fix p = 5).
const DefaultPrecision uint = 5

// PrecisionInf disables ratio rounding; CAMP then matches GDS on the
// integerized ratios (the "∞" curve in Figure 5a).
const PrecisionInf = rounding.PrecisionInf

// Camp is the CAMP eviction policy. It is not safe for concurrent use; wrap
// it (see the root camp package) for multi-threaded access.
type Camp struct {
	capacity  int64
	used      int64
	precision uint
	conv      rounding.Converter

	items  map[string]*campEntry
	queues map[uint64]*campQueue
	heap   *nheap.Heap[*campQueue]

	l        uint64 // the global GDS offset L; non-decreasing (Prop. 1)
	seq      uint64 // insertion sequence, breaks priority ties by LRU
	classicL bool   // L-update ablation: evicted-H instead of min-of-remaining

	stats        cache.Stats
	onEvict      cache.EvictFunc
	maxQueues    int
	heapUpdates  uint64 // pushes+pops+fixes+removes of the queue heap
	queueCreates uint64
}

type campEntry struct {
	key    string
	size   int64
	cost   int64
	bucket uint64 // rounded integer cost-to-size ratio == queue id
	h      uint64 // priority: L at last request + bucket
	seq    uint64 // request sequence at last touch (LRU tie-break)
	node   *ilist.Node[*campEntry]
}

// campQueue is one LRU queue holding every resident item that shares a
// rounded cost-to-size ratio. The head (front) has the smallest priority.
type campQueue struct {
	bucket  uint64
	list    *ilist.List[*campEntry]
	heapIdx int
}

func (q *campQueue) head() *campEntry { return q.list.Front().Value }

var _ cache.Policy = (*Camp)(nil)
var _ cache.VictimPeeker = (*Camp)(nil)
var _ cache.HeapVisitor = (*Camp)(nil)
var _ cache.QueueCounter = (*Camp)(nil)
var _ cache.PriorityOrdered = (*Camp)(nil)
var _ cache.PriorityScaled = (*Camp)(nil)

// Option configures a Camp policy.
type Option func(*Camp)

// WithPrecision sets the number of significant bits kept when rounding
// cost-to-size ratios. Lower precision means fewer queues; PrecisionInf
// disables rounding. The default is DefaultPrecision (5).
func WithPrecision(p uint) Option {
	return func(c *Camp) { c.precision = p }
}

// WithHeapArity overrides the branching factor of the queue-head heap.
// The paper uses an 8-ary implicit heap.
func WithHeapArity(d int) Option {
	return func(c *Camp) {
		c.heap = newQueueHeap(d)
	}
}

// WithClassicLUpdate switches the L bookkeeping to the original
// Cao-Irani GDS rule — L rises to the *evicted* item's priority, and hits
// do not touch L — instead of Algorithm 1's more aggressive
// min-of-the-remaining rule. Both preserve Proposition 1; this option
// exists as the DESIGN.md ablation of that design choice.
func WithClassicLUpdate() Option {
	return func(c *Camp) { c.classicL = true }
}

// NewCamp returns a CAMP policy with the given byte capacity.
func NewCamp(capacity int64, opts ...Option) *Camp {
	if capacity < 0 {
		capacity = 0
	}
	c := &Camp{
		capacity:  capacity,
		precision: DefaultPrecision,
		items:     make(map[string]*campEntry),
		queues:    make(map[uint64]*campQueue),
		heap:      newQueueHeap(nheap.DefaultArity),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func newQueueHeap(arity int) *nheap.Heap[*campQueue] {
	return nheap.New(
		func(a, b *campQueue) bool {
			ha, hb := a.head(), b.head()
			if ha.h != hb.h {
				return ha.h < hb.h
			}
			return ha.seq < hb.seq // ties broken by LRU (§2)
		},
		nheap.WithArity[*campQueue](arity),
		nheap.WithIndexTracking(func(q *campQueue, i int) { q.heapIdx = i }),
	)
}

// Name implements cache.Policy.
func (c *Camp) Name() string { return "camp" }

// Precision returns the configured rounding precision.
func (c *Camp) Precision() uint { return c.precision }

// L returns the current value of the global offset. It is exposed for tests
// and diagnostics.
func (c *Camp) L() uint64 { return c.l }

// Get implements cache.Policy. On a hit the item moves to the tail of its
// LRU queue with priority L' + ratio, where L' is the minimum priority among
// the other resident items (Algorithm 1, line 2).
func (c *Camp) Get(key string) bool {
	e, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.touch(e)
	c.stats.Hits++
	return true
}

// touch refreshes e's priority and recency. The heap is only updated when
// the head of e's queue changes or the queue appears/disappears — the key
// efficiency claim of §2.
func (c *Camp) touch(e *campEntry) {
	q := c.queues[e.bucket]
	wasHead := q.list.Front() == e.node
	onlyItem := q.list.Len() == 1

	q.list.Remove(e.node)
	switch {
	case onlyItem:
		c.heap.Remove(q.heapIdx)
		c.heapUpdates++
		delete(c.queues, e.bucket)
	case wasHead:
		// Head changed to a larger priority; restore heap order.
		c.heap.Fix(q.heapIdx)
		c.heapUpdates++
	}

	// L <- min over M \ {e} (the heap now excludes e in all cases where
	// e could have been the minimum). The classic rule leaves L alone on
	// hits.
	if !c.classicL {
		c.raiseL()
	}

	e.h = c.newPriority(e.bucket)
	c.seq++
	e.seq = c.seq

	dst, ok := c.queues[e.bucket]
	if !ok {
		dst = c.addQueue(e.bucket)
		dst.list.PushBackNode(e.node)
		c.heap.Push(dst)
		c.heapUpdates++
		return
	}
	// Appending at the tail never changes the head: no heap update.
	dst.list.PushBackNode(e.node)
}

// Set implements cache.Policy.
func (c *Camp) Set(key string, size, cost int64) bool {
	if size < 0 {
		size = 0
	}
	if e, ok := c.items[key]; ok {
		// Update in place: detach, then re-admit with the new
		// size/cost so eviction can never pick the entry itself.
		c.detach(e)
		if !c.admit(key, size, cost) {
			c.stats.Rejected++
			return false
		}
		c.stats.Updates++
		return true
	}
	if !c.admit(key, size, cost) {
		c.stats.Rejected++
		return false
	}
	c.stats.Sets++
	return true
}

// admit makes room for (key, size, cost) and links a fresh entry at the tail
// of its queue with priority L + rounded ratio.
func (c *Camp) admit(key string, size, cost int64) bool {
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		if !c.evictOne() {
			return false
		}
	}
	bucket := c.bucketFor(cost, size)
	e := &campEntry{key: key, size: size, cost: cost, bucket: bucket}
	e.node = &ilist.Node[*campEntry]{Value: e}
	e.h = c.newPriority(bucket)
	c.seq++
	e.seq = c.seq

	q, ok := c.queues[bucket]
	if !ok {
		q = c.addQueue(bucket)
		q.list.PushBackNode(e.node)
		c.heap.Push(q)
		c.heapUpdates++
	} else {
		prevHead := q.head()
		q.list.PushBackNode(e.node)
		// A tail insert can only change the head if the new item
		// sorts before it, which cannot happen because L is
		// non-decreasing; assert in debug builds via invariant tests.
		_ = prevHead
	}
	c.items[key] = e
	c.used += size
	return true
}

// evictOne removes the item with the (approximately) smallest priority: the
// head of the heap-minimum queue. After the eviction, L rises to the
// minimum priority of the remaining items (Algorithm 1, line 6).
func (c *Camp) evictOne() bool {
	_, ok := c.EvictOne()
	return ok
}

// EvictOne implements cache.Evicter: it evicts the head of the heap-minimum
// LRU queue and lifts L to the new minimum.
func (c *Camp) EvictOne() (cache.Entry, bool) {
	q, ok := c.heap.Peek()
	if !ok {
		return cache.Entry{}, false
	}
	victim := q.head()
	c.removeEntry(victim, q)
	if c.classicL {
		// Original GDS rule: L becomes the evicted item's priority.
		if victim.h > c.l {
			c.l = victim.h
		}
	} else {
		c.raiseL()
	}
	c.stats.Evictions++
	c.stats.EvictedBytes += uint64(victim.size)
	e := cache.Entry{Key: victim.key, Size: victim.size, Cost: victim.cost}
	if c.onEvict != nil {
		c.onEvict(e)
	}
	return e, true
}

// PeekVictim implements cache.VictimPeeker: the head of the heap-minimum
// LRU queue, with urgency H − L — the rounded cost-per-byte value the cache
// would forfeit by evicting it now.
func (c *Camp) PeekVictim() (cache.Entry, float64, bool) {
	q, ok := c.heap.Peek()
	if !ok {
		return cache.Entry{}, 0, false
	}
	victim := q.head()
	e := cache.Entry{Key: victim.key, Size: victim.size, Cost: victim.cost}
	return e, float64(victim.h - c.l), true
}

// Delete implements cache.Policy.
func (c *Camp) Delete(key string) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.detach(e)
	return true
}

// detach removes e from all structures without touching L or stats.
func (c *Camp) detach(e *campEntry) {
	c.removeEntry(e, c.queues[e.bucket])
}

func (c *Camp) removeEntry(e *campEntry, q *campQueue) {
	wasHead := q.list.Front() == e.node
	q.list.Remove(e.node)
	if q.list.Len() == 0 {
		c.heap.Remove(q.heapIdx)
		c.heapUpdates++
		delete(c.queues, q.bucket)
	} else if wasHead {
		c.heap.Fix(q.heapIdx)
		c.heapUpdates++
	}
	delete(c.items, e.key)
	c.used -= e.size
}

// Contains implements cache.Policy.
func (c *Camp) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Peek implements cache.Policy.
func (c *Camp) Peek(key string) (cache.Entry, bool) {
	e, ok := c.items[key]
	if !ok {
		return cache.Entry{}, false
	}
	return cache.Entry{Key: e.key, Size: e.size, Cost: e.cost}, true
}

// Len implements cache.Policy.
func (c *Camp) Len() int { return len(c.items) }

// Used implements cache.Policy.
func (c *Camp) Used() int64 { return c.used }

// Capacity implements cache.Policy.
func (c *Camp) Capacity() int64 { return c.capacity }

// Stats implements cache.Policy.
func (c *Camp) Stats() cache.Stats { return c.stats }

// SetEvictFunc implements cache.Policy.
func (c *Camp) SetEvictFunc(fn cache.EvictFunc) { c.onEvict = fn }

// HeapVisits implements cache.HeapVisitor.
func (c *Camp) HeapVisits() uint64 { return c.heap.Visits() }

// ResetHeapVisits implements cache.HeapVisitor.
func (c *Camp) ResetHeapVisits() { c.heap.ResetVisits() }

// HeapUpdates returns how many structural heap operations (push, pop, fix,
// remove) CAMP has performed; compare with GDS, which performs one on every
// hit and every eviction.
func (c *Camp) HeapUpdates() uint64 { return c.heapUpdates }

// QueueCount implements cache.QueueCounter: the number of non-empty LRU
// queues, the Figure 5b / 8c metric.
func (c *Camp) QueueCount() int { return len(c.queues) }

// MaxQueueCount implements cache.QueueCounter.
func (c *Camp) MaxQueueCount() int { return c.maxQueues }

// bucketFor integerizes and rounds a cost-to-size ratio.
func (c *Camp) bucketFor(cost, size int64) uint64 {
	return rounding.Round(c.conv.IntRatio(cost, size), c.precision)
}

// PriorityScale implements cache.PriorityScaled: the ratio integerizer's
// adaptive scale (the largest size observed), which decides how fractional
// cost-to-size ratios map to integer queue ids. It is learned from the
// whole history — including evicted entries — so a snapshot must carry it
// for a restored policy to bucket future Sets exactly as the live one.
func (c *Camp) PriorityScale() uint64 { return uint64(c.conv.MaxSize()) }

// RestorePriorityScale implements cache.PriorityScaled. The scale only ever
// widens (Observe keeps the max), so corrupt small values are harmless and
// replay order does not matter.
func (c *Camp) RestorePriorityScale(scale uint64) {
	if scale > math.MaxInt64 {
		scale = math.MaxInt64
	}
	c.conv.Observe(int64(scale))
}

// newPriority computes H = L + bucket with saturating arithmetic. Reaching
// the saturation point requires ~2^63 accumulated priority, unreachable for
// realistic traces; if it ever happens, saturated items tie on H and fall
// back to pure LRU ordering via seq — a graceful degradation rather than a
// scrambled heap.
func (c *Camp) newPriority(bucket uint64) uint64 {
	return satAdd(c.l, bucket)
}

// satAdd returns a+b, saturating at the maximum uint64.
func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}

// raiseL lifts L to the minimum priority among resident queue heads. L never
// decreases (Proposition 1).
func (c *Camp) raiseL() {
	q, ok := c.heap.Peek()
	if !ok {
		return
	}
	if h := q.head().h; h > c.l {
		c.l = h
	}
}

func (c *Camp) addQueue(bucket uint64) *campQueue {
	q := &campQueue{bucket: bucket, list: ilist.New[*campEntry](), heapIdx: -1}
	c.queues[bucket] = q
	c.queueCreates++
	if len(c.queues) > c.maxQueues {
		c.maxQueues = len(c.queues)
	}
	return q
}

// VisitEvictionOrder implements cache.EvictionOrdered with a k-way merge
// over the per-ratio queues. Each queue is already in ascending (H, seq)
// order, and evicting an item never changes another item's priority (only L
// moves), so repeatedly taking the smallest (H, seq) among the queue fronts —
// the same comparison the queue-head heap uses — reproduces the exact
// sequence EvictOne would emit, without mutating anything.
func (c *Camp) VisitEvictionOrder(visit func(cache.Entry) bool) {
	c.visitOrder(func(e *campEntry) bool {
		return visit(cache.Entry{Key: e.key, Size: e.size, Cost: e.cost})
	})
}

// VisitEvictionPriority implements cache.PriorityOrdered: the same merge,
// with each entry's priority offset H − L and its queue id (the rounded
// integer ratio). The offset is what a snapshot must persist for a warm
// start to restore the cross-queue schedule exactly: after eviction churn
// different entries sit at different H − L (older entries were priced
// against a smaller L), which re-deriving H from the cost alone collapses.
// The queue id rides along because it cannot be re-derived either — the
// ratio integerizer's scale is adaptive, so a fresh policy would bucket the
// same (cost, size) differently until it re-learns the workload.
func (c *Camp) VisitEvictionPriority(visit func(e cache.Entry, prio, class uint64) bool) {
	c.visitOrder(func(e *campEntry) bool {
		return visit(cache.Entry{Key: e.key, Size: e.size, Cost: e.cost}, e.h-c.l, e.bucket)
	})
}

func (c *Camp) visitOrder(visit func(*campEntry) bool) {
	less := func(a, b *ilist.Node[*campEntry]) bool {
		if a.Value.h != b.Value.h {
			return a.Value.h < b.Value.h
		}
		return a.Value.seq < b.Value.seq
	}
	cursors := nheap.New(less)
	for _, q := range c.queues {
		cursors.Push(q.list.Front())
	}
	for cursors.Len() > 0 {
		n := cursors.Pop()
		if !visit(n.Value) {
			return
		}
		if next := n.Next(); next != nil {
			cursors.Push(next)
		}
	}
}

// SetWithPriority implements cache.PriorityOrdered: Set with the entry's
// priority pinned to H = L + offset in the exported queue (class) instead
// of the freshly derived L + ratio in a freshly bucketed queue. An offset
// above the class — impossible in a well-formed snapshot, reachable through
// a corrupt one — is clamped to the class so Proposition 1's
// L ≤ H ≤ L + ratio bound always holds.
func (c *Camp) SetWithPriority(key string, size, cost int64, prio, class uint64) bool {
	if size < 0 {
		size = 0
	}
	if e, ok := c.items[key]; ok {
		c.detach(e)
		if !c.admitAt(key, size, cost, prio, class) {
			c.stats.Rejected++
			return false
		}
		c.stats.Updates++
		return true
	}
	if !c.admitAt(key, size, cost, prio, class) {
		c.stats.Rejected++
		return false
	}
	c.stats.Sets++
	return true
}

// admitAt is admit with a pinned (priority offset, queue id). Unlike admit,
// the new entry's H may sort before existing queue members (a snapshot
// replayed in visitation order never does — it appends at the tail in O(1) —
// but the contract tolerates any order), so the entry is linked at its
// sorted queue position rather than blindly at the back. The ratio
// integerizer still observes the entry's size, so the adaptive scale future
// Sets bucket with is rebuilt from the restored working set.
func (c *Camp) admitAt(key string, size, cost int64, prio, class uint64) bool {
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		if !c.evictOne() {
			return false
		}
	}
	if size >= 1 {
		c.conv.Observe(size)
	}
	bucket := class
	if prio > bucket {
		prio = bucket
	}
	e := &campEntry{key: key, size: size, cost: cost, bucket: bucket}
	e.h = satAdd(c.l, prio)
	c.seq++
	e.seq = c.seq

	q, ok := c.queues[bucket]
	if !ok {
		q = c.addQueue(bucket)
		e.node = &ilist.Node[*campEntry]{Value: e}
		q.list.PushBackNode(e.node)
		c.heap.Push(q)
		c.heapUpdates++
	} else {
		// e.seq is the newest, so ties on H sort after existing entries:
		// scan from the tail for the first member that does not outrank e.
		at := q.list.Back()
		for at != nil && at.Value.h > e.h {
			at = at.Prev()
		}
		if at == nil {
			e.node = q.list.PushFront(e)
			// The queue's head changed to a smaller priority.
			c.heap.Fix(q.heapIdx)
			c.heapUpdates++
		} else {
			e.node = q.list.InsertAfter(e, at)
		}
	}
	c.items[key] = e
	c.used += size
	return true
}

// CheckInvariants validates the §2 data-structure invariants; tests call it
// after every operation. It returns nil when all hold:
//
//  1. every queue is non-empty and registered in the heap at its heapIdx;
//  2. within a queue, items are ordered by non-decreasing (h, seq) — the
//     "LRU order equals priority order" observation;
//  3. L <= H(p) <= L + ratio(p) for every resident p (Proposition 1);
//  4. used bytes equal the sum of resident sizes and never exceed capacity;
//  5. the items map and the queues hold exactly the same entries.
func (c *Camp) CheckInvariants() error {
	var (
		bytes int64
		count int
	)
	heapItems := c.heap.Items()
	if len(heapItems) != len(c.queues) {
		return fmt.Errorf("heap has %d queues, map has %d", len(heapItems), len(c.queues))
	}
	for bucket, q := range c.queues {
		if q.bucket != bucket {
			return fmt.Errorf("queue registered under %d has bucket %d", bucket, q.bucket)
		}
		if q.list.Len() == 0 {
			return fmt.Errorf("queue %d is empty but registered", bucket)
		}
		if q.heapIdx < 0 || q.heapIdx >= len(heapItems) || heapItems[q.heapIdx] != q {
			return fmt.Errorf("queue %d heapIdx %d is stale", bucket, q.heapIdx)
		}
		var prev *campEntry
		for n := q.list.Front(); n != nil; n = n.Next() {
			e := n.Value
			if e.bucket != bucket {
				return fmt.Errorf("entry %q in queue %d has bucket %d", e.key, bucket, e.bucket)
			}
			if prev != nil && (e.h < prev.h || (e.h == prev.h && e.seq < prev.seq)) {
				return fmt.Errorf("queue %d not in priority order at %q", bucket, e.key)
			}
			if e.h < c.l {
				return fmt.Errorf("entry %q has H=%d below L=%d", e.key, e.h, c.l)
			}
			if e.h > satAdd(c.l, bucket) {
				return fmt.Errorf("entry %q has H=%d above L+ratio=%d", e.key, e.h, satAdd(c.l, bucket))
			}
			if got, ok := c.items[e.key]; !ok || got != e {
				return fmt.Errorf("entry %q in queue %d missing from items map", e.key, bucket)
			}
			bytes += e.size
			count++
			prev = e
		}
	}
	if count != len(c.items) {
		return fmt.Errorf("queues hold %d entries, items map %d", count, len(c.items))
	}
	if bytes != c.used {
		return fmt.Errorf("accounted %d bytes, used=%d", bytes, c.used)
	}
	if c.used > c.capacity {
		return fmt.Errorf("used %d exceeds capacity %d", c.used, c.capacity)
	}
	if bad := c.heap.Verify(); bad != -1 {
		return fmt.Errorf("queue heap invariant violated at slot %d", bad)
	}
	return nil
}
