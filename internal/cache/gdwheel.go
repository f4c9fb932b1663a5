package cache

import "camp/internal/rounding"

// GDWheel approximates Greedy-Dual-Size with hierarchical timing wheels,
// after Li and Cox's GD-Wheel (§5 related work). Priorities H = T + d (T
// the global clock, d the integerized cost-to-size ratio) are binned into
// wheel slots: level l groups priorities at granularity W^l, so — as the
// CAMP paper points out — GD-Wheel rounds the *overall priority*, not the
// ratio, and must migrate slots from outer wheels to inner ones as the
// clock advances. It is implemented here as the paper's foil: CAMP achieves
// the same O(1) flavor without migrations and with a provable bound.
//
// It is an Ordering: a node's H word is its priority and its Aux word the
// wheel slot it is linked in (level·W + slot). The embedded Keyed makes it a
// Policy.
type GDWheel struct {
	Keyed
	capacity int64
	used     int64
	n        int

	slots   [gdwLevels][gdwWheelWidth]Queue
	counts  [gdwLevels]int // non-empty slot count per level
	t       uint64         // global clock (the GDS "L")
	conv    rounding.Converter
	stats   Stats
	onEvict func(*Node)
}

// gdwWheelWidth is the number of slots per wheel level.
const gdwWheelWidth = 256

// gdwLevels is the number of wheel levels; offsets beyond W^3 clamp into
// the outermost wheel.
const gdwLevels = 3

var (
	_ Policy   = (*GDWheel)(nil)
	_ Ordering = (*GDWheel)(nil)
)

// NewGDWheel returns a GD-Wheel policy with the given byte capacity.
func NewGDWheel(capacity int64) *GDWheel {
	g := &GDWheel{capacity: max(capacity, 0)}
	g.Keyed = NewKeyed(g, &g.stats)
	return g
}

// Name implements Ordering.
func (g *GDWheel) Name() string { return "gdwheel" }

// Clock returns the wheel clock (GDS's L analog), for tests.
func (g *GDWheel) Clock() uint64 { return g.t }

// span returns W^(l+1), the priority range covered by level l.
func span(level int) uint64 {
	s := uint64(gdwWheelWidth)
	for i := 0; i < level; i++ {
		s *= gdwWheelWidth
	}
	return s
}

// granularity returns W^l, the slot width of level l.
func granularity(level int) uint64 {
	gr := uint64(1)
	for i := 0; i < level; i++ {
		gr *= gdwWheelWidth
	}
	return gr
}

// base returns the start of level l's current window.
func (g *GDWheel) base(level int) uint64 {
	sp := span(level)
	return g.t / sp * sp
}

// place links n into the wheel slot covering its priority.
func (g *GDWheel) place(n *Node) {
	d := n.H - g.t
	level := 0
	for level < gdwLevels-1 && n.H >= g.base(level)+span(level) {
		level++
	}
	if d >= span(gdwLevels-1) {
		// Clamp far-future priorities into the outermost window.
		n.H = g.base(gdwLevels-1) + span(gdwLevels-1) - 1
	}
	slot := n.H / granularity(level) % gdwWheelWidth
	n.Aux = uint64(level)*gdwWheelWidth + slot
	lst := &g.slots[level][slot]
	if lst.Len() == 0 {
		g.counts[level]++
	}
	lst.PushBack(n)
}

// unlink removes n from its slot.
func (g *GDWheel) unlink(n *Node) {
	level := n.Aux / gdwWheelWidth
	lst := &g.slots[level][n.Aux%gdwWheelWidth]
	lst.Remove(n)
	if lst.Len() == 0 {
		g.counts[level]--
	}
}

// Touch implements Ordering.
func (g *GDWheel) Touch(n *Node) {
	g.unlink(n)
	n.H = g.t + g.conv.IntRatio(n.Cost, n.Size)
	g.place(n)
	g.stats.Hits++
}

// Insert implements Ordering.
func (g *GDWheel) Insert(n *Node) bool {
	if n.Size > g.capacity {
		g.stats.Rejected++
		return false
	}
	for g.used+n.Size > g.capacity {
		if g.Evict() == nil {
			g.stats.Rejected++
			return false
		}
	}
	n.H = g.t + g.conv.IntRatio(n.Cost, n.Size)
	g.place(n)
	g.used += n.Size
	g.n++
	g.stats.Sets++
	return true
}

// InsertAt implements Ordering: the wheel re-derives priorities from its
// clock, so none is pinned.
func (g *GDWheel) InsertAt(n *Node, _, _ uint64) bool { return g.Insert(n) }

// Remove implements Ordering.
func (g *GDWheel) Remove(n *Node) {
	g.unlink(n)
	g.used -= n.Size
	g.n--
}

// victim finds the approximately-minimum-priority node and its level-0
// slot, migrating outer wheels inward until the hand's window holds one.
func (g *GDWheel) victim() (*Node, uint64) {
	for attempts := 0; g.n > 0 && attempts < gdwWheelWidth*gdwLevels+2; attempts++ {
		// Scan the level-0 window from the hand forward.
		if g.counts[0] > 0 {
			for s := g.t % gdwWheelWidth; s < gdwWheelWidth; s++ {
				if n := g.slots[0][s].Front(); n != nil {
					return n, s
				}
			}
		}
		// Level 0 exhausted for this window: pull the next non-empty
		// outer slot's window down.
		if !g.migrate() {
			return nil, 0
		}
	}
	return nil, 0
}

// Victim implements Ordering, with urgency 0. Finding the victim may
// migrate an outer wheel's slot inward, GD-Wheel's own lazy step, which
// moves the clock to that slot's window.
func (g *GDWheel) Victim() (*Node, float64) {
	n, _ := g.victim()
	return n, 0
}

// Evict implements Ordering: advance the hand to the next non-empty level-0
// slot (migrating outer wheels inward as windows are crossed) and evict
// that slot's FIFO head.
func (g *GDWheel) Evict() *Node {
	n, s := g.victim()
	if n == nil {
		return nil
	}
	g.unlink(n)
	// The hand advances to the evicted slot.
	g.t = g.base(0) + s
	g.used -= n.Size
	g.n--
	g.stats.Evictions++
	g.stats.EvictedBytes += uint64(n.Size)
	if g.onEvict != nil {
		g.onEvict(n)
	}
	return n
}

// migrate advances the clock to the next outer-wheel slot holding items and
// redistributes that slot into the inner wheels — GD-Wheel's migration step.
func (g *GDWheel) migrate() bool {
	for level := 1; level < gdwLevels; level++ {
		if g.counts[level] == 0 {
			continue
		}
		gr := granularity(level)
		start := int(g.t / gr % gdwWheelWidth)
		for s := start; s < gdwWheelWidth; s++ {
			lst := &g.slots[level][s]
			if lst.Len() == 0 {
				continue
			}
			// Jump the clock to this slot's window start and
			// re-place its items; they land in inner levels.
			winBase := g.base(level) + uint64(s)*gr
			if winBase > g.t {
				g.t = winBase
			}
			var moved []*Node
			for lst.Len() > 0 {
				n := lst.Front()
				g.unlink(n)
				moved = append(moved, n)
			}
			for _, n := range moved {
				if n.H < g.t {
					n.H = g.t // stale clamp; preserves order approximately
				}
				g.place(n)
			}
			return true
		}
		// The remainder of this level's window is empty; fall
		// through to the next outer level.
	}
	// All outer windows exhausted: rebuild the wheels around the smallest
	// priority, taking every slot's nodes in wheel order.
	var all []*Node
	for level := range g.slots {
		for s := range g.slots[level] {
			for lst := &g.slots[level][s]; lst.Len() > 0; {
				n := lst.Front()
				g.unlink(n)
				all = append(all, n)
			}
		}
	}
	if len(all) == 0 {
		return false
	}
	g.t = all[0].H
	for _, n := range all {
		g.t = min(g.t, n.H)
	}
	for _, n := range all {
		g.place(n)
	}
	return true
}

// Visit implements Ordering, approximately in eviction order — GD-Wheel
// settles its order only as migrations bring outer slots in: level by
// level, each level's slots from its hand onward and then round, each slot
// first in first out.
func (g *GDWheel) Visit(visit func(n *Node, prio, class uint64) bool) {
	for level := range g.slots {
		hand := g.t / granularity(level) % gdwWheelWidth
		for i := uint64(0); i < gdwWheelWidth; i++ {
			for n := g.slots[level][(hand+i)%gdwWheelWidth].Front(); n != nil; n = n.Next() {
				if !visit(n, 0, 0) {
					return
				}
			}
		}
	}
}

// Prioritized implements Ordering: restored priorities are re-derived.
func (g *GDWheel) Prioritized() bool { return false }

// Scale implements Ordering.
func (g *GDWheel) Scale() (uint64, bool) { return 0, false }

// RestoreScale implements Ordering.
func (g *GDWheel) RestoreScale(uint64) {}

// Len implements Ordering.
func (g *GDWheel) Len() int { return g.n }

// Used implements Ordering.
func (g *GDWheel) Used() int64 { return g.used }

// Capacity implements Ordering.
func (g *GDWheel) Capacity() int64 { return g.capacity }

// Stats implements Ordering.
func (g *GDWheel) Stats() Stats { return g.stats }

// OnEvict implements Ordering.
func (g *GDWheel) OnEvict(fn func(*Node)) { g.onEvict = fn }
