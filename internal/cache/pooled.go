package cache

import (
	"fmt"
	"sort"
)

// PoolSpec describes one memory pool of a PooledLRU: items whose cost lies
// in [MinCost, MaxCost) are assigned to the pool, and the pool receives a
// share of the total capacity proportional to Weight.
//
// This models the human-partitioned alternative of §3 and [Nishtala et al.,
// NSDI'13]: an expert groups key-value pairs with similar costs and assigns
// each group a dedicated LRU pool.
type PoolSpec struct {
	// Name labels the pool in diagnostics.
	Name string
	// MinCost is the inclusive lower bound of costs routed to this pool.
	MinCost int64
	// MaxCost is the exclusive upper bound; 0 means unbounded.
	MaxCost int64
	// Weight is the pool's share of capacity, relative to the sum of all
	// weights. Must be > 0.
	Weight float64
}

// PooledLRU statically partitions memory into per-cost-group pools, each an
// independent LRU. Unlike CAMP, pool sizes never adapt: an item can evict
// only within its own pool.
//
// It is an Ordering over its pools' orderings, with each node's pool in its
// Aux word (the pools' LRUs never use it); the embedded Keyed makes it a
// Policy.
type PooledLRU struct {
	Keyed
	capacity int64
	specs    []PoolSpec
	pools    []*LRU
	stats    Stats
}

var (
	_ Policy   = (*PooledLRU)(nil)
	_ Ordering = (*PooledLRU)(nil)
)

// NewPooled creates a PooledLRU with the given capacity split across pools
// according to their weights. Pool cost ranges must not overlap; costs that
// match no pool are routed to the pool with the closest range.
func NewPooled(capacity int64, specs []PoolSpec) (*PooledLRU, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cache: pooled policy needs at least one pool")
	}
	var totalWeight float64
	for i, s := range specs {
		if s.Weight <= 0 {
			return nil, fmt.Errorf("cache: pool %d (%s) has non-positive weight %v", i, s.Name, s.Weight)
		}
		if s.MaxCost != 0 && s.MaxCost <= s.MinCost {
			return nil, fmt.Errorf("cache: pool %d (%s) has empty range [%d,%d)", i, s.Name, s.MinCost, s.MaxCost)
		}
		totalWeight += s.Weight
	}
	ordered := append([]PoolSpec(nil), specs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].MinCost < ordered[j].MinCost })
	for i := 1; i < len(ordered); i++ {
		prev := ordered[i-1]
		if prev.MaxCost == 0 || ordered[i].MinCost < prev.MaxCost {
			return nil, fmt.Errorf("cache: pools %q and %q overlap", prev.Name, ordered[i].Name)
		}
	}
	p := &PooledLRU{capacity: capacity, specs: ordered, pools: make([]*LRU, len(ordered))}
	p.Keyed = NewKeyed(p, &p.stats)
	assigned := int64(0)
	for i, s := range ordered {
		share := int64(float64(capacity) * s.Weight / totalWeight)
		if i == len(ordered)-1 {
			share = capacity - assigned // give rounding remainder to the last pool
		}
		assigned += share
		lru := NewLRU(share)
		lru.OnEvict(func(n *Node) {
			p.stats.Evictions++
			p.stats.EvictedBytes += uint64(n.Size)
			p.NotifyEvict(n)
		})
		p.pools[i] = lru
	}
	return p, nil
}

// NewPooledByCostValues builds one pool per distinct cost value, as in the
// paper's {1, 100, 10K} experiment. Weights are the cost values themselves
// ("memory assigned proportional to cost"), or uniform when uniform is true.
func NewPooledByCostValues(capacity int64, costs []int64, uniform bool) (*PooledLRU, error) {
	if len(costs) == 0 {
		return nil, fmt.Errorf("cache: no cost values given")
	}
	sorted := append([]int64(nil), costs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	specs := make([]PoolSpec, len(sorted))
	for i, c := range sorted {
		max := int64(0)
		if i+1 < len(sorted) {
			max = sorted[i+1]
		}
		w := float64(c)
		if uniform {
			w = 1
		}
		if w <= 0 {
			w = 1
		}
		min := c
		if i == 0 {
			min = 0 // sweep anything cheaper into the cheapest pool
		}
		specs[i] = PoolSpec{
			Name:    fmt.Sprintf("cost-%d", c),
			MinCost: min,
			MaxCost: max,
			Weight:  w,
		}
	}
	return NewPooled(capacity, specs)
}

// NewPooledByRanges builds pools over half-open cost ranges with weights
// proportional to each range's floor (max(floor,1)), the §3.2 setup for
// continuous costs: [1,100), [100,10000), [10000,∞).
func NewPooledByRanges(capacity int64, bounds []int64) (*PooledLRU, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("cache: no range bounds given")
	}
	sorted := append([]int64(nil), bounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	specs := make([]PoolSpec, len(sorted))
	for i, lo := range sorted {
		hi := int64(0)
		if i+1 < len(sorted) {
			hi = sorted[i+1]
		}
		w := float64(lo)
		if w < 1 {
			w = 1
		}
		min := lo
		if i == 0 {
			min = 0
		}
		specs[i] = PoolSpec{
			Name:    fmt.Sprintf("range-%d", lo),
			MinCost: min,
			MaxCost: hi,
			Weight:  w,
		}
	}
	return NewPooled(capacity, specs)
}

// Name implements Ordering.
func (p *PooledLRU) Name() string { return "pooled-lru" }

// Touch implements Ordering.
func (p *PooledLRU) Touch(n *Node) {
	p.pools[n.Aux].Touch(n)
	p.stats.Hits++
}

// Insert implements Ordering: n goes to the pool its cost routes it to, and
// may evict only there.
func (p *PooledLRU) Insert(n *Node) bool {
	i := p.poolFor(n.Cost)
	if !p.pools[i].Insert(n) {
		p.stats.Rejected++
		return false
	}
	n.Aux = uint64(i)
	p.stats.Sets++
	return true
}

// InsertAt implements Ordering: recency is each pool's whole state.
func (p *PooledLRU) InsertAt(n *Node, _, _ uint64) bool { return p.Insert(n) }

// Remove implements Ordering.
func (p *PooledLRU) Remove(n *Node) { p.pools[n.Aux].Remove(n) }

// Victim implements Ordering: the least recently used node of the cheapest
// pool that holds any, with urgency 0.
func (p *PooledLRU) Victim() (*Node, float64) {
	for _, pool := range p.pools {
		if n, _ := pool.Victim(); n != nil {
			return n, 0
		}
	}
	return nil, 0
}

// Evict implements Ordering: it evicts Victim.
func (p *PooledLRU) Evict() *Node {
	for _, pool := range p.pools {
		if n := pool.Evict(); n != nil {
			return n
		}
	}
	return nil
}

// Visit implements Ordering: pool by pool in cost order, each least recently
// used first — the order successive Evicts take.
func (p *PooledLRU) Visit(visit func(n *Node, prio, class uint64) bool) {
	for _, pool := range p.pools {
		for n := pool.queue.Front(); n != nil; n = n.Next() {
			if !visit(n, 0, 0) {
				return
			}
		}
	}
}

// Len implements Ordering.
func (p *PooledLRU) Len() int {
	n := 0
	for _, pool := range p.pools {
		n += pool.Len()
	}
	return n
}

// Used implements Ordering.
func (p *PooledLRU) Used() int64 {
	var u int64
	for _, pool := range p.pools {
		u += pool.Used()
	}
	return u
}

// Capacity implements Ordering.
func (p *PooledLRU) Capacity() int64 { return p.capacity }

// Stats implements Ordering.
func (p *PooledLRU) Stats() Stats { return p.stats }

// PoolInfo reports one pool's configuration and occupancy.
type PoolInfo struct {
	Spec     PoolSpec
	Capacity int64
	Used     int64
	Items    int
}

// Pools returns per-pool diagnostics in cost order.
func (p *PooledLRU) Pools() []PoolInfo {
	out := make([]PoolInfo, len(p.pools))
	for i, pool := range p.pools {
		out[i] = PoolInfo{
			Spec:     p.specs[i],
			Capacity: pool.Capacity(),
			Used:     pool.Used(),
			Items:    pool.Len(),
		}
	}
	return out
}

func (p *PooledLRU) poolFor(cost int64) int {
	// Pools are sorted by MinCost. Pick the matching pool; costs falling
	// in a gap go to the pool below, costs below every pool to the first.
	idx := 0
	for i, s := range p.specs {
		if cost < s.MinCost {
			break
		}
		idx = i
		if s.MaxCost == 0 || cost < s.MaxCost {
			return i
		}
	}
	return idx
}
