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
type GDWheel struct {
	capacity int64
	used     int64

	slots   [gdwLevels][gdwWheelWidth]Queue
	counts  [gdwLevels]int // non-empty slot count per level
	t       uint64         // global clock (the GDS "L")
	conv    rounding.Converter
	items   map[string]*gdwEntry
	stats   Stats
	onEvict EvictFunc
}

// gdwWheelWidth is the number of slots per wheel level.
const gdwWheelWidth = 256

// gdwLevels is the number of wheel levels; offsets beyond W^3 clamp into
// the outermost wheel.
const gdwLevels = 3

// gdwEntry is a resident key, linked into the wheel slot its priority (the
// node's H word) falls in.
type gdwEntry struct {
	Node
	level, slot int
}

var _ Policy = (*GDWheel)(nil)

// NewGDWheel returns a GD-Wheel policy with the given byte capacity.
func NewGDWheel(capacity int64) *GDWheel {
	if capacity < 0 {
		capacity = 0
	}
	return &GDWheel{capacity: capacity, items: make(map[string]*gdwEntry)}
}

// Name implements Policy.
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

// place links e into the wheel slot covering its priority.
func (g *GDWheel) place(e *gdwEntry) {
	d := e.H - g.t
	level := 0
	for level < gdwLevels-1 && e.H >= g.base(level)+span(level) {
		level++
	}
	if d >= span(gdwLevels-1) {
		// Clamp far-future priorities into the outermost window.
		e.H = g.base(gdwLevels-1) + span(gdwLevels-1) - 1
	}
	gr := granularity(level)
	slot := int(e.H / gr % gdwWheelWidth)
	e.level, e.slot = level, slot
	lst := &g.slots[level][slot]
	if lst.Len() == 0 {
		g.counts[level]++
	}
	lst.PushBack(&e.Node)
}

// unlink removes e from its slot.
func (g *GDWheel) unlink(e *gdwEntry) {
	lst := &g.slots[e.level][e.slot]
	lst.Remove(&e.Node)
	if lst.Len() == 0 {
		g.counts[e.level]--
	}
}

// Get implements Policy.
func (g *GDWheel) Get(key string) bool {
	e, ok := g.items[key]
	if !ok {
		g.stats.Misses++
		return false
	}
	g.unlink(e)
	e.H = g.t + g.ratio(e.Cost, e.Size)
	g.place(e)
	g.stats.Hits++
	return true
}

func (g *GDWheel) ratio(cost, size int64) uint64 {
	d := g.conv.IntRatio(cost, size)
	if d == 0 {
		return 0
	}
	return d
}

// Set implements Policy.
func (g *GDWheel) Set(key string, size, cost int64) bool {
	if size < 0 {
		size = 0
	}
	if e, ok := g.items[key]; ok {
		g.unlink(e)
		delete(g.items, key)
		g.used -= e.Size
		if !g.admit(key, size, cost) {
			g.stats.Rejected++
			return false
		}
		g.stats.Updates++
		return true
	}
	if !g.admit(key, size, cost) {
		g.stats.Rejected++
		return false
	}
	g.stats.Sets++
	return true
}

func (g *GDWheel) admit(key string, size, cost int64) bool {
	if size > g.capacity {
		return false
	}
	for g.used+size > g.capacity {
		if _, ok := g.EvictOne(); !ok {
			return false
		}
	}
	e := &gdwEntry{Node: Node{Key: key, Size: size, Cost: cost, H: g.t + g.ratio(cost, size)}}
	g.place(e)
	g.items[key] = e
	g.used += size
	return true
}

// EvictOne evicts one victim on demand: advance the hand to the next non-empty
// level-0 slot (migrating outer wheels inward as windows are crossed) and
// evict that slot's FIFO head.
func (g *GDWheel) EvictOne() (Entry, bool) {
	if len(g.items) == 0 {
		return Entry{}, false
	}
	e := g.popMin()
	if e == nil {
		return Entry{}, false
	}
	delete(g.items, e.Key)
	g.used -= e.Size
	g.stats.Evictions++
	g.stats.EvictedBytes += uint64(e.Size)
	out := e.Entry()
	if g.onEvict != nil {
		g.onEvict(out)
	}
	return out, true
}

// popMin finds the approximately-minimum-priority entry.
func (g *GDWheel) popMin() *gdwEntry {
	for attempts := 0; attempts < gdwWheelWidth*gdwLevels+2; attempts++ {
		// Scan the level-0 window from the hand forward.
		if g.counts[0] > 0 {
			start := int(g.t % gdwWheelWidth)
			for s := start; s < gdwWheelWidth; s++ {
				lst := &g.slots[0][s]
				if lst.Len() == 0 {
					continue
				}
				e := g.items[lst.Front().Key]
				g.unlink(e)
				// The hand advances to the evicted slot.
				g.t = g.base(0) + uint64(s)
				return e
			}
		}
		// Level 0 exhausted for this window: pull the next non-empty
		// outer slot's window down.
		if !g.migrate() {
			return nil
		}
	}
	return nil
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
			var moved []*gdwEntry
			for lst.Len() > 0 {
				e := g.items[lst.Front().Key]
				g.unlink(e)
				moved = append(moved, e)
			}
			for _, e := range moved {
				if e.H < g.t {
					e.H = g.t // stale clamp; preserves order approximately
				}
				g.place(e)
			}
			return true
		}
		// The remainder of this level's window is empty; fall
		// through to the next outer level.
	}
	// All outer windows exhausted: wrap every level's window forward.
	// Items must exist somewhere (the caller checked), so advance to the
	// smallest priority directly.
	var min *gdwEntry
	for _, e := range g.items {
		if min == nil || e.H < min.H {
			min = e
		}
	}
	if min == nil {
		return false
	}
	// Rebuild the wheels around the new clock.
	g.t = min.H
	all := make([]*gdwEntry, 0, len(g.items))
	for _, e := range g.items {
		g.unlink(e)
		all = append(all, e)
	}
	for l := range g.counts {
		g.counts[l] = 0
	}
	for _, e := range all {
		if e.H < g.t {
			e.H = g.t
		}
		g.place(e)
	}
	return true
}

// Delete implements Policy.
func (g *GDWheel) Delete(key string) bool {
	e, ok := g.items[key]
	if !ok {
		return false
	}
	g.unlink(e)
	delete(g.items, key)
	g.used -= e.Size
	return true
}

// Contains implements Policy.
func (g *GDWheel) Contains(key string) bool {
	_, ok := g.items[key]
	return ok
}

// Peek implements Policy.
func (g *GDWheel) Peek(key string) (Entry, bool) {
	e, ok := g.items[key]
	if !ok {
		return Entry{}, false
	}
	return e.Entry(), true
}

// Len implements Policy.
func (g *GDWheel) Len() int { return len(g.items) }

// Used implements Policy.
func (g *GDWheel) Used() int64 { return g.used }

// Capacity implements Policy.
func (g *GDWheel) Capacity() int64 { return g.capacity }

// Stats implements Policy.
func (g *GDWheel) Stats() Stats { return g.stats }

// SetEvictFunc implements Policy.
func (g *GDWheel) SetEvictFunc(fn EvictFunc) { g.onEvict = fn }
