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
	"camp/internal/nheap"
	"camp/internal/rounding"
)

// DefaultPrecision is the precision used throughout the paper's evaluation
// (Figures 5c, 5d, 6, 9 all fix p = 5).
const DefaultPrecision uint = 5

// PrecisionInf disables ratio rounding; CAMP then matches GDS on the
// integerized ratios (the "∞" curve in Figure 5a).
const PrecisionInf = rounding.PrecisionInf

// Camp is the CAMP eviction policy: a cache.Ordering over nodes its caller
// owns, and — through the embedded cache.Keyed — a string-keyed cache.Policy.
// It is not safe for concurrent use; wrap it (see the root camp package) for
// multi-threaded access.
type Camp struct {
	cache.Keyed
	capacity  int64
	used      int64
	n         int
	precision uint
	conv      rounding.Converter

	queues map[uint64]*campQueue
	heap   *nheap.Heap[*campQueue]

	l        uint64 // the global GDS offset L; non-decreasing (Prop. 1)
	seq      uint64 // insertion sequence, breaks priority ties by LRU
	classicL bool   // L-update ablation: evicted-H instead of min-of-remaining

	stats       cache.Stats
	maxQueues   int
	heapUpdates uint64 // pushes+pops+fixes+removes of the queue heap
}

// campQueue is one LRU queue holding every resident node that shares a
// rounded cost-to-size ratio (the node's Aux word). The head (front) has the
// smallest priority (the node's H word; ties fall to its Seq word).
type campQueue struct {
	cache.Queue
	bucket  uint64
	heapIdx int
}

func (q *campQueue) head() *cache.Node { return q.Front() }

var _ cache.Policy = (*Camp)(nil)
var _ cache.Ordering = (*Camp)(nil)
var _ cache.HeapVisitor = (*Camp)(nil)
var _ cache.QueueCounter = (*Camp)(nil)

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
	c := &Camp{
		capacity:  max(capacity, 0),
		precision: DefaultPrecision,
		queues:    make(map[uint64]*campQueue),
		heap:      newQueueHeap(nheap.DefaultArity),
	}
	c.Keyed = cache.NewKeyed(c, &c.stats)
	for _, o := range opts {
		o(c)
	}
	return c
}

func newQueueHeap(arity int) *nheap.Heap[*campQueue] {
	return nheap.New(
		func(a, b *campQueue) bool { return before(a.head(), b.head()) },
		nheap.WithArity[*campQueue](arity),
		nheap.WithIndexTracking(func(q *campQueue, i int) { q.heapIdx = i }),
	)
}

// before orders nodes by priority, ties broken by LRU (§2).
func before(a, b *cache.Node) bool {
	if a.H != b.H {
		return a.H < b.H
	}
	return a.Seq < b.Seq
}

// Name implements cache.Ordering.
func (c *Camp) Name() string { return "camp" }

// Precision returns the configured rounding precision.
func (c *Camp) Precision() uint { return c.precision }

// L returns the current value of the global offset. It is exposed for tests
// and diagnostics.
func (c *Camp) L() uint64 { return c.l }

// Touch implements cache.Ordering. On a hit the item moves to the tail of
// its LRU queue with priority L' + ratio, where L' is the minimum priority
// among the other resident items (Algorithm 1, line 2). The heap is only
// updated when the head of the node's queue changes — the key efficiency
// claim of §2 — or n is its queue's only member, which leaves the heap while
// L is raised and re-enters it with n's new priority. The node never leaves
// its queue, so a hit allocates nothing.
func (c *Camp) Touch(n *cache.Node) {
	q := c.queues[n.Aux]
	sole, wasHead := q.Len() == 1, q.Front() == n
	q.MoveToBack(n)
	if sole {
		c.heap.Remove(q.heapIdx)
		c.heapUpdates++
	} else if wasHead {
		// Head changed to a larger priority; restore heap order.
		c.heap.Fix(q.heapIdx)
		c.heapUpdates++
	}
	// L <- min over M \ {n} (n is no queue's head now, so the heap excludes
	// it). The classic rule leaves L alone on hits.
	if !c.classicL {
		c.raiseL()
	}
	n.H = satAdd(c.l, n.Aux)
	c.seq++
	n.Seq = c.seq
	if sole {
		c.heap.Push(q)
		c.heapUpdates++
	}
	c.stats.Hits++
}

// Insert implements cache.Ordering: it makes room for n and links it at the
// tail of its queue with priority L + rounded ratio.
func (c *Camp) Insert(n *cache.Node) bool {
	if !c.makeRoom(n.Size) {
		return false
	}
	n.Aux = c.bucketFor(n.Cost, n.Size)
	n.H = satAdd(c.l, n.Aux)
	c.link(n)
	c.admitted(n)
	return true
}

// bucketFor integerizes and rounds a cost-to-size ratio.
func (c *Camp) bucketFor(cost, size int64) uint64 {
	return rounding.Round(c.conv.IntRatio(cost, size), c.precision)
}

// makeRoom evicts until size more bytes fit, counting a refusal.
func (c *Camp) makeRoom(size int64) bool {
	if size > c.capacity {
		c.stats.Rejected++
		return false
	}
	for c.used+size > c.capacity {
		c.Evict()
	}
	return true
}

func (c *Camp) admitted(n *cache.Node) {
	c.n++
	c.used += n.Size
	c.stats.Sets++
}

// link stamps n as the most recent request and appends it to the queue its
// Aux word names, creating the queue if need be, and returns that queue. A
// tail insert can only change the head if the new item sorts before it,
// which cannot happen because L is non-decreasing: no heap update unless the
// queue is new.
func (c *Camp) link(n *cache.Node) *campQueue {
	c.seq++
	n.Seq = c.seq
	q, ok := c.queues[n.Aux]
	if !ok {
		q = c.addQueue(n.Aux)
	}
	q.PushBack(n)
	if !ok {
		c.heap.Push(q)
		c.heapUpdates++
	}
	return q
}

// unlink removes n from its queue, fixing the heap only if the queue emptied
// or lost its head. It touches neither L nor the byte accounting.
func (c *Camp) unlink(n *cache.Node) {
	q := c.queues[n.Aux]
	wasHead := q.Front() == n
	q.Remove(n)
	if q.Len() == 0 {
		c.heap.Remove(q.heapIdx)
		c.heapUpdates++
		delete(c.queues, q.bucket)
	} else if wasHead {
		// Head changed to a larger priority; restore heap order.
		c.heap.Fix(q.heapIdx)
		c.heapUpdates++
	}
}

// Evict implements cache.Ordering: it evicts the item with the
// (approximately) smallest priority — the head of the heap-minimum LRU
// queue — and lifts L to the minimum priority of the remaining items
// (Algorithm 1, line 6).
func (c *Camp) Evict() *cache.Node {
	victim, _ := c.Victim()
	if victim == nil {
		return nil
	}
	c.Remove(victim)
	if c.classicL {
		// Original GDS rule: L becomes the evicted item's priority.
		c.l = max(c.l, victim.H)
	} else {
		c.raiseL()
	}
	c.stats.Evictions++
	c.stats.EvictedBytes += uint64(victim.Size)
	c.NotifyEvict(victim)
	return victim
}

// Victim implements cache.Ordering: the head of the heap-minimum LRU queue,
// with urgency H − L — the rounded cost-per-byte value the cache would
// forfeit by evicting it now.
func (c *Camp) Victim() (*cache.Node, float64) {
	q, ok := c.heap.Peek()
	if !ok {
		return nil, 0
	}
	victim := q.head()
	return victim, float64(victim.H - c.l)
}

// Remove implements cache.Ordering; L and the stats are untouched.
func (c *Camp) Remove(n *cache.Node) {
	c.unlink(n)
	c.n--
	c.used -= n.Size
}

// Len implements cache.Ordering.
func (c *Camp) Len() int { return c.n }

// Used implements cache.Ordering.
func (c *Camp) Used() int64 { return c.used }

// Capacity implements cache.Ordering.
func (c *Camp) Capacity() int64 { return c.capacity }

// Stats implements cache.Ordering.
func (c *Camp) Stats() cache.Stats { return c.stats }

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

// Prioritized implements cache.Ordering.
func (c *Camp) Prioritized() bool { return true }

// Scale implements cache.Ordering: the ratio integerizer's adaptive scale
// (the largest size observed), which decides how fractional cost-to-size
// ratios map to integer queue ids. It is learned from the whole history —
// including evicted entries — so a snapshot must carry it for a restored
// policy to bucket future inserts exactly as the live one.
func (c *Camp) Scale() (uint64, bool) { return uint64(c.conv.MaxSize()), true }

// RestoreScale implements cache.Ordering. The scale only ever widens
// (Observe keeps the max), so corrupt small values are harmless and replay
// order does not matter.
func (c *Camp) RestoreScale(scale uint64) {
	c.conv.Observe(int64(min(scale, math.MaxInt64)))
}

// satAdd returns a+b, saturating at the maximum uint64: priorities are
// H = L + bucket, and reaching the saturation point requires ~2^63
// accumulated priority, unreachable for realistic traces; if it ever
// happens, saturated items tie on H and fall back to pure LRU ordering via
// Seq — a graceful degradation rather than a scrambled heap.
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
	if q, ok := c.heap.Peek(); ok {
		c.l = max(c.l, q.head().H)
	}
}

func (c *Camp) addQueue(bucket uint64) *campQueue {
	q := &campQueue{bucket: bucket, heapIdx: -1}
	c.queues[bucket] = q
	c.maxQueues = max(c.maxQueues, len(c.queues))
	return q
}

// Visit implements cache.Ordering with a k-way merge over the per-ratio
// queues. Each queue is already in ascending (H, Seq) order, and evicting an
// item never changes another item's priority (only L moves), so repeatedly
// taking the smallest (H, Seq) among the queue fronts — the same comparison
// the queue-head heap uses — reproduces the exact sequence Evict would emit,
// without mutating anything.
//
// Each node comes with its priority offset H − L and its queue id (the
// rounded integer ratio). The offset is what a snapshot must persist for a
// warm start to restore the cross-queue schedule exactly: after eviction
// churn different entries sit at different H − L (older entries were priced
// against a smaller L), which re-deriving H from the cost alone collapses.
// The queue id rides along because it cannot be re-derived either — the
// ratio integerizer's scale is adaptive, so a fresh policy would bucket the
// same (cost, size) differently until it re-learns the workload.
func (c *Camp) Visit(visit func(n *cache.Node, prio, class uint64) bool) {
	cursors := nheap.New(before)
	for _, q := range c.queues {
		cursors.Push(q.head())
	}
	for cursors.Len() > 0 {
		n := cursors.Pop()
		if !visit(n, n.H-c.l, n.Aux) {
			return
		}
		if next := n.Next(); next != nil {
			cursors.Push(next)
		}
	}
}

// InsertAt implements cache.Ordering: Insert with the node's priority pinned
// to H = L + offset in the exported queue (class) instead of the freshly
// derived L + ratio in a freshly bucketed queue. An offset above the class —
// impossible in a well-formed snapshot, reachable through a corrupt one — is
// clamped to the class so Proposition 1's L ≤ H ≤ L + ratio bound always
// holds.
//
// Unlike Insert, the node's H may sort before existing queue members (a
// snapshot replayed in visitation order never does — it appends at the tail
// in O(1) — but the contract tolerates any order), so the node is linked at
// its sorted queue position rather than blindly at the back. The ratio
// integerizer still observes the node's size, so the adaptive scale future
// inserts bucket with is rebuilt from the restored working set.
func (c *Camp) InsertAt(n *cache.Node, prio, class uint64) bool {
	if !c.makeRoom(n.Size) {
		return false
	}
	if n.Size >= 1 {
		c.conv.Observe(n.Size)
	}
	n.Aux = class
	n.H = satAdd(c.l, min(prio, class))
	q := c.link(n)
	// n.Seq is the newest, so ties on H sort after existing entries: walk
	// back from the tail past every member that outranks n.
	at := n.Prev()
	for at != nil && at.H > n.H {
		at = at.Prev()
	}
	if at != n.Prev() { // else the tail is its place
		q.MoveAfter(n, at)
		if at == nil {
			// The queue's head changed to a smaller priority.
			c.heap.Fix(q.heapIdx)
			c.heapUpdates++
		}
	}
	c.admitted(n)
	return true
}

// CheckInvariants validates the §2 data-structure invariants; tests call it
// after every operation. It returns nil when all hold:
//
//  1. every queue is non-empty, linked the same both ways, holds only nodes
//     of its ratio, and is registered in the heap at its heapIdx;
//  2. within a queue, items are ordered by non-decreasing (H, Seq) — the
//     "LRU order equals priority order" observation;
//  3. L <= H(p) <= L + ratio(p) for every resident p (Proposition 1);
//  4. used bytes equal the sum of resident sizes and never exceed capacity;
//  5. the queues hold Len() entries, and the key index (when the keyed face
//     is in use) holds exactly the same ones.
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
		if q.Len() == 0 {
			return fmt.Errorf("queue %d is empty but registered", bucket)
		}
		if q.heapIdx < 0 || q.heapIdx >= len(heapItems) || heapItems[q.heapIdx] != q {
			return fmt.Errorf("queue %d heapIdx %d is stale", bucket, q.heapIdx)
		}
		var prev *cache.Node
		linked := 0
		for e := q.Front(); e != nil; e = e.Next() {
			if e.Prev() != prev {
				return fmt.Errorf("queue %d: entry seq %d H %d: back link is broken", bucket, e.Seq, e.H)
			}
			if e.Aux != bucket {
				return fmt.Errorf("entry seq %d H %d in queue %d has bucket %d", e.Seq, e.H, bucket, e.Aux)
			}
			if prev != nil && before(e, prev) {
				return fmt.Errorf("queue %d not in priority order at entry seq %d H %d", bucket, e.Seq, e.H)
			}
			if e.H < c.l {
				return fmt.Errorf("entry seq %d has H=%d below L=%d", e.Seq, e.H, c.l)
			}
			if e.H > satAdd(c.l, bucket) {
				return fmt.Errorf("entry seq %d has H=%d above L+ratio=%d", e.Seq, e.H, satAdd(c.l, bucket))
			}
			bytes += e.Size
			linked++
			prev = e
		}
		if linked != q.Len() || q.Back() != prev {
			return fmt.Errorf("queue %d links %d entries front to back, its length is %d", bucket, linked, q.Len())
		}
		count += linked
	}
	if count != c.n {
		return fmt.Errorf("queues hold %d entries, Len is %d", count, c.n)
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
	return c.CheckIndex()
}
