package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"camp/internal/cache"
	"camp/internal/nheap"
)

// GDS is the Greedy-Dual-Size algorithm of Cao and Irani (USITS'97),
// implemented exactly as Algorithm 1 in the paper: every resident item sits
// in one priority queue keyed by H(p) = L + cost(p)/size(p), the minimum-H
// item is evicted, and L rises to the minimum H of the remaining items after
// each eviction (line 6) and to the minimum H among the other items on each
// hit (line 2).
//
// The heap holds every resident item, so each hit and each eviction performs
// an O(log n) heap update — the overhead CAMP eliminates. The heap counts
// visited nodes for the Figure 4 comparison.
type GDS struct {
	cache.Keyed
	capacity int64
	used     int64

	// heap holds every resident node: H is the float64 bits of its
	// priority, Seq the FIFO tie-break, Aux its heap slot. Priorities are
	// never negative or NaN, and such floats order exactly as their bit
	// patterns do, so the heap shares CAMP's integer (H, Seq) comparison.
	heap *nheap.Heap[*cache.Node]

	l   float64 // the global offset L
	seq uint64  // FIFO tie-break counter

	stats          cache.Stats
	heapUpdates    uint64
	textbookDelete bool
}

var _ cache.Policy = (*GDS)(nil)
var _ cache.Ordering = (*GDS)(nil)
var _ cache.HeapVisitor = (*GDS)(nil)

// GDSOption configures a GDS policy.
type GDSOption func(*GDS)

// WithTextbookDelete switches heap deletions to the classical
// bubble-to-root-then-pop method, which pays the full heap depth on every
// hit. This mode reproduces the rising GDS curve of Figure 4; the default
// replace-with-last deletion is cheaper and flattens that curve (see Fig4 in
// internal/figures/fig4_5.go and its testdata/figures/fig4.golden).
func WithTextbookDelete() GDSOption {
	return func(g *GDS) { g.textbookDelete = true }
}

// NewGDS returns a GDS policy with the given byte capacity. The item heap is
// 8-ary, matching CAMP's queue heap for a fair Figure 4 comparison.
func NewGDS(capacity int64, opts ...GDSOption) *GDS {
	g := &GDS{
		capacity: max(capacity, 0),
		heap: nheap.New(before,
			nheap.WithIndexTracking(func(n *cache.Node, i int) { n.Aux = uint64(i) })),
	}
	g.Keyed = cache.NewKeyed(g, &g.stats)
	for _, o := range opts {
		o(g)
	}
	return g
}

func gdsH(n *cache.Node) float64 { return math.Float64frombits(n.H) }

// Name implements cache.Ordering.
func (g *GDS) Name() string { return "gds" }

// L returns the current value of the global offset, for tests.
func (g *GDS) L() float64 { return g.l }

// Touch implements cache.Ordering.
func (g *GDS) Touch(n *cache.Node) {
	// Algorithm 1, line 2: L <- min over M \ {n}. Temporarily removing n
	// makes the heap minimum exactly that quantity.
	g.unlink(n)
	g.raiseL()
	g.link(n, g.l+ratio(n.Cost, n.Size))
	g.stats.Hits++
}

// Insert implements cache.Ordering (Algorithm 1, lines 4-8).
func (g *GDS) Insert(n *cache.Node) bool {
	return g.insert(n, ratio(n.Cost, n.Size))
}

func (g *GDS) insert(n *cache.Node, offset float64) bool {
	if n.Size > g.capacity {
		g.stats.Rejected++
		return false
	}
	for g.used+n.Size > g.capacity {
		g.Evict()
	}
	g.link(n, g.l+offset)
	g.used += n.Size
	g.stats.Sets++
	return true
}

func (g *GDS) link(n *cache.Node, h float64) {
	g.seq++
	n.H, n.Seq = math.Float64bits(h), g.seq
	g.heap.Push(n)
	g.heapUpdates++
}

func (g *GDS) unlink(n *cache.Node) {
	if g.textbookDelete {
		g.heap.RemoveViaRoot(int(n.Aux))
	} else {
		g.heap.Remove(int(n.Aux))
	}
	g.heapUpdates++
}

// raiseL lifts L to the minimum H among resident items.
func (g *GDS) raiseL() {
	if top, ok := g.heap.Peek(); ok {
		g.l = max(g.l, gdsH(top))
	}
}

// Evict implements cache.Ordering: it pops the minimum-H item and lifts L
// to the minimum of the remaining items (Algorithm 1, lines 5-6).
func (g *GDS) Evict() *cache.Node {
	if g.heap.Len() == 0 {
		return nil
	}
	victim := g.heap.Pop()
	g.heapUpdates++
	g.used -= victim.Size
	g.raiseL()
	g.stats.Evictions++
	g.stats.EvictedBytes += uint64(victim.Size)
	g.NotifyEvict(victim)
	return victim
}

// Victim implements cache.Ordering: the minimum-H item, with urgency H − L —
// the cost-per-byte value GDS would forfeit by evicting it.
func (g *GDS) Victim() (*cache.Node, float64) {
	top, ok := g.heap.Peek()
	if !ok {
		return nil, 0
	}
	return top, gdsH(top) - g.l
}

// Remove implements cache.Ordering.
func (g *GDS) Remove(n *cache.Node) {
	g.unlink(n)
	g.used -= n.Size
}

// Len implements cache.Ordering.
func (g *GDS) Len() int { return g.heap.Len() }

// Used implements cache.Ordering.
func (g *GDS) Used() int64 { return g.used }

// Capacity implements cache.Ordering.
func (g *GDS) Capacity() int64 { return g.capacity }

// Stats implements cache.Ordering.
func (g *GDS) Stats() cache.Stats { return g.stats }

// HeapVisits implements cache.HeapVisitor.
func (g *GDS) HeapVisits() uint64 { return g.heap.Visits() }

// ResetHeapVisits implements cache.HeapVisitor.
func (g *GDS) ResetHeapVisits() { g.heap.ResetVisits() }

// HeapUpdates returns the number of structural heap operations performed.
func (g *GDS) HeapUpdates() uint64 { return g.heapUpdates }

// Visit implements cache.Ordering. Evictions never change a surviving
// item's H (only L moves), so sorting all residents by the heap's (H, Seq)
// comparison yields the exact Evict sequence.
//
// GDS priorities are floats, so the offset H − L travels as its IEEE-754
// bits; subtraction by a shared L is weakly monotonic in float64, so
// replaying the offsets against a fresh L preserves the exact visitation
// order (ties that rounding may introduce fall back to insertion order,
// which is the visitation order). GDS has no queues, so the class is always
// zero.
func (g *GDS) Visit(visit func(n *cache.Node, prio, class uint64) bool) {
	nodes := slices.Clone(g.heap.Items())
	sort.Slice(nodes, func(i, j int) bool { return before(nodes[i], nodes[j]) })
	for _, n := range nodes {
		if !visit(n, math.Float64bits(gdsH(n)-g.l), 0) {
			return
		}
	}
}

// Prioritized implements cache.Ordering.
func (g *GDS) Prioritized() bool { return true }

// InsertAt implements cache.Ordering: Insert with the node's priority
// pinned to H = L + the decoded offset (the class is ignored — GDS has no
// queues). Offsets that violate Algorithm 1's L ≤ H ≤ L + ratio bound — NaN,
// negative, or oversized bits from a corrupt snapshot — are clamped into it
// rather than trusted.
func (g *GDS) InsertAt(n *cache.Node, prio, _ uint64) bool {
	off, r := math.Float64frombits(prio), ratio(n.Cost, n.Size)
	if math.IsNaN(off) || off < 0 || off > r {
		off = r
	}
	return g.insert(n, off)
}

// CheckInvariants validates internal consistency, for tests.
func (g *GDS) CheckInvariants() error {
	var bytes int64
	for i, e := range g.heap.Items() {
		if int(e.Aux) != i {
			return fmt.Errorf("entry seq %d H %v: heap slot %d is stale, sits at %d", e.Seq, gdsH(e), e.Aux, i)
		}
		if h := gdsH(e); h < g.l {
			return fmt.Errorf("entry seq %d has H=%v below L=%v", e.Seq, h, g.l)
		} else if top := g.l + ratio(e.Cost, e.Size); h > top+1e-9 {
			return fmt.Errorf("entry seq %d has H=%v above L+ratio=%v", e.Seq, h, top)
		}
		bytes += e.Size
	}
	if bytes != g.used {
		return fmt.Errorf("accounted %d bytes, used=%d", bytes, g.used)
	}
	if g.used > g.capacity {
		return fmt.Errorf("used %d exceeds capacity %d", g.used, g.capacity)
	}
	if bad := g.heap.Verify(); bad != -1 {
		return fmt.Errorf("heap invariant violated at slot %d", bad)
	}
	return g.CheckIndex()
}

func ratio(cost, size int64) float64 {
	if cost <= 0 {
		return 0
	}
	if size < 1 {
		size = 1
	}
	return float64(cost) / float64(size)
}
