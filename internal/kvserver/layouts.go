package kvserver

import (
	"errors"
	"fmt"
	"math"

	"camp/internal/alloc"
	"camp/internal/cache"
	"camp/internal/itab"
)

// layout is one of the four memory-management schemes (the paper's §5
// malloc/slab/buddy trio plus the Memshare-style packed arena). It owns the
// one decision the rest of the server must not know: where value bytes live
// and what an item's loc word means. The store calls it under the shard
// lock; a layout under memory pressure frees space through the store it was
// built for (store.evictArbitratedBatch, store.delete).
type layout interface {
	// put lands one value and returns where it lives and the size its
	// ordering is to be charged for it. requester is that ordering: the
	// evictions put needs are arbitrated on its behalf.
	put(requester cache.Ordering, key string, value []byte, flags uint32, expNano int64) (loc uint64, charged int64, ok bool)
	// value returns the bytes put copied to loc (copiesValues layouts only).
	// The slice aliases layout memory that maintain and put may move: consume
	// or copy it before the shard lock drops.
	value(loc uint64) []byte
	// release frees whatever put reserved at loc.
	release(loc uint64)
	// touch records a new expiry (unix nanoseconds, 0 = none) at loc.
	touch(loc uint64, expNano int64)
	// maintain donates one bounded step of housekeeping after a mutation.
	maintain()
	// stats reports packed-segment accounting; ok is false for the layouts
	// that have none.
	stats() (as alloc.ArenaStats, ok bool)
	// copiesValues reports whether put copies the caller's slice (so callers
	// may reuse it, and must read values back through value under the lock)
	// instead of the item retaining it.
	copiesValues() bool
	// tenantCapable reports whether the layout can share its memory between
	// per-tenant policies.
	tenantCapable() bool
}

// newLayout builds st's layout and the ordering of its evictions.
func newLayout(st *store) (layout, cache.Ordering, error) {
	cfg := st.cfg
	switch cfg.Mode {
	case ModeByte:
		p, err := buildPolicy(cfg, cfg.MemoryBytes)
		return byteLayout{st: st}, p, err
	case ModeBuddy:
		minBlock := cfg.MinBlock
		if minBlock == 0 {
			minBlock = 64
		}
		b, err := alloc.NewBuddyAllocator(cfg.MemoryBytes, minBlock)
		if err != nil {
			return nil, nil, err
		}
		p, err := buildPolicy(cfg, b.ArenaSize())
		return &buddyLayout{st: st, b: b}, p, err
	case ModeArena:
		a, err := alloc.NewArena(cfg.MemoryBytes, cfg.ArenaSegment)
		if err != nil {
			return nil, nil, err
		}
		l := &arenaLayout{st: st, a: a}
		// Bound once so the per-mutation compaction steps never allocate a
		// closure.
		l.alive, l.moved = l.isAlive, l.relocated
		p, err := buildPolicy(cfg, cfg.MemoryBytes)
		return l, p, err
	case ModeSlab:
		var opts []alloc.SlabOption
		if cfg.SlabSize > 0 {
			opts = append(opts, alloc.WithSlabSize(cfg.SlabSize))
		}
		a, err := alloc.NewSlabAllocator(cfg.MemoryBytes, opts...)
		if err != nil {
			return nil, nil, err
		}
		l := &slabLayout{st: st, a: a, lru: make([]*cache.LRU, a.NumClasses())}
		for i := range l.lru {
			l.lru[i] = cache.NewLRU(math.MaxInt64)
		}
		return l, l, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown mode %q", errBadConfig, cfg.Mode)
	}
}

// retained is the part shared by the three layouts whose items keep the
// caller's value slice (byte, slab, buddy): nothing to read back, move or
// touch.
type retained struct{}

func (retained) value(uint64) []byte             { return nil }
func (retained) touch(uint64, int64)             {}
func (retained) maintain()                       {}
func (retained) stats() (alloc.ArenaStats, bool) { return alloc.ArenaStats{}, false }
func (retained) copiesValues() bool              { return false }

// byteLayout is malloc mode: values are plain heap slices and the policy is
// charged the exact item size.
type byteLayout struct {
	retained
	st *store
}

func (l byteLayout) put(_ cache.Ordering, key string, value []byte, _ uint32, _ int64) (uint64, int64, bool) {
	return 0, l.st.itemSize(key, value), true
}
func (byteLayout) release(uint64)      {}
func (byteLayout) tenantCapable() bool { return true }

// buddyLayout reserves a power-of-two block per item and charges the policy
// that rounded size; loc is the block's offset. The configured policy picks
// the victims when the allocator is full or fragmented.
type buddyLayout struct {
	retained
	st *store
	b  *alloc.BuddyAllocator
}

func (l *buddyLayout) put(requester cache.Ordering, key string, value []byte, _ uint32, _ int64) (uint64, int64, bool) {
	// Replace any previous version first so we never evict ourselves.
	l.st.delete(key)
	size := l.st.itemSize(key, value)
	block, err := l.b.BlockSize(size)
	if err != nil {
		return 0, 0, false
	}
	for {
		off, err := l.b.Alloc(size)
		if err == nil {
			return uint64(off), block, true
		}
		// The policy picks a victim; its eviction callback frees the block.
		if !errors.Is(err, alloc.ErrNoMemory) || !l.st.evictArbitratedBatch(requester, 1) {
			return 0, 0, false
		}
	}
}
func (l *buddyLayout) release(loc uint64) { l.b.Free(int64(loc)) }
func (*buddyLayout) tenantCapable() bool  { return false }

// arenaLayout packs key and value into per-shard log-structured segments
// (alloc.Arena); loc is the record's alloc.Ref and the store's item index
// doubles as the hash→record index. Overwrites and deletes only mark bytes
// dead; every mutation donates one bounded compaction step.
type arenaLayout struct {
	st    *store
	a     *alloc.Arena
	alive func(key []byte, ref alloc.Ref) bool
	moved func(key []byte, ref alloc.Ref)
}

// arenaCompactStride bounds how many record bytes one mutation's incremental
// compaction step may scan, amortizing reclamation across operations the way
// sweepExpired amortizes expiry.
const arenaCompactStride = 32 << 10

// put copies the record into the arena, clearing space on pressure:
// compaction first (reclaims dead bytes for free), then arbitrated eviction.
// The loop terminates — each CompactForce recycles a whole segment or
// reports false, and each eviction removes one resident entry, so a record
// that fits the budget eventually lands and one that cannot fails once the
// arena is drained.
func (l *arenaLayout) put(requester cache.Ordering, key string, value []byte, flags uint32, expNano int64) (uint64, int64, bool) {
	size := l.st.itemSize(key, value)
	if size > l.st.cfg.MemoryBytes {
		return 0, 0, false
	}
	for {
		ref, err := l.a.Append(key, value, flags, expNano)
		if err == nil {
			return ref.Word(), size, true
		}
		if !l.a.CompactForce(l.alive, l.moved) && !l.st.evictArbitratedBatch(requester, 1) {
			return 0, 0, false
		}
	}
}

func (l *arenaLayout) isAlive(key []byte, ref alloc.Ref) bool {
	it := itab.Lookup(l.st.items, key)
	return it != nil && it.loc == ref.Word()
}

func (l *arenaLayout) relocated(key []byte, ref alloc.Ref) {
	if it := itab.Lookup(l.st.items, key); it != nil {
		it.loc = ref.Word()
	}
}

func (l *arenaLayout) value(loc uint64) []byte { return l.a.Value(alloc.RefOf(loc)) }
func (l *arenaLayout) release(loc uint64)      { l.a.Release(alloc.RefOf(loc)) }

// touch rewrites the expiry inside the packed record too, so a future
// mmap-style rebuild from the segments sees the touched deadline.
func (l *arenaLayout) touch(loc uint64, expNano int64) {
	l.a.TouchExpiry(alloc.RefOf(loc), expNano)
}

func (l *arenaLayout) maintain() {
	if l.a.NeedsCompaction() {
		l.a.CompactStep(arenaCompactStride, l.alive, l.moved)
	}
}
func (l *arenaLayout) stats() (alloc.ArenaStats, bool) { return l.a.Stats(), true }
func (*arenaLayout) copiesValues() bool                { return true }
func (*arenaLayout) tenantCapable() bool               { return true }

// slabLayout is Twemcache's layout: slab classes of equal chunks, one LRU
// per class, random slab eviction when a class has nothing to give; loc is
// the chunk's alloc.Handle. Recency is per class, so the layout serves as
// the store's eviction ordering too (cache.Ordering), routing each node to
// the class its charged size maps to. The configured policy is ignored, as
// Twemcache ignores it.
type slabLayout struct {
	retained
	st  *store
	a   *alloc.SlabAllocator
	lru []*cache.LRU
	// reassigned counts items dropped by random slab eviction, which no
	// class LRU sees as an eviction.
	reassigned uint64
}

// put implements Twemcache's §5 strategy: a free chunk or a new slab (inside
// Alloc), then per-class LRU eviction, then random slab eviction.
func (l *slabLayout) put(_ cache.Ordering, key string, value []byte, _ uint32, _ int64) (uint64, int64, bool) {
	// Replace any previous version first so we never evict ourselves.
	l.st.delete(key)
	size := l.st.itemSize(key, value)
	class, err := l.a.ClassFor(size)
	if err != nil {
		return 0, 0, false
	}
	for {
		h, err := l.a.Alloc(key, size)
		if err == nil {
			return h.Word(), size, true
		}
		if !errors.Is(err, alloc.ErrNoMemory) {
			return 0, 0, false
		}
		// The store's eviction callback unindexes the victim and releases
		// its chunk.
		if l.lru[class].Evict() != nil {
			continue
		}
		owners, ok := l.a.ReassignRandomSlab(class)
		if !ok {
			return 0, 0, false
		}
		// The reassignment already emptied these chunks: unindex their items
		// without a release.
		for _, owner := range owners {
			if it := itab.Lookup(l.st.items, owner); it != nil {
				l.Remove(&it.node)
				l.st.forget(it)
				l.reassigned++
			}
		}
	}
}
func (l *slabLayout) release(loc uint64) { l.a.Free(alloc.HandleOf(loc)) }
func (*slabLayout) tenantCapable() bool  { return false }

// lruFor returns the class LRU a node's charged size maps to. put has
// already placed a chunk of that class, so the size is known to fit one.
func (l *slabLayout) lruFor(n *cache.Node) *cache.LRU {
	class, _ := l.a.ClassFor(n.Size)
	return l.lru[class]
}

func (*slabLayout) Name() string { return "lru-slab" }

// Insert records a freshly put node (put has already removed any old
// version). The class LRUs are unbounded: the allocator owns space
// accounting.
func (l *slabLayout) Insert(n *cache.Node) bool                { return l.lruFor(n).Insert(n) }
func (l *slabLayout) InsertAt(n *cache.Node, _, _ uint64) bool { return l.Insert(n) }
func (l *slabLayout) Touch(n *cache.Node)                      { l.lruFor(n).Touch(n) }
func (l *slabLayout) Remove(n *cache.Node)                     { l.lruFor(n).Remove(n) }

// Victim and Evict name the first non-empty class's least recent node; put
// evicts within the class it needs instead.
func (l *slabLayout) Victim() (n *cache.Node, urgency float64) {
	for _, c := range l.lru {
		if n, _ := c.Victim(); n != nil {
			return n, 0
		}
	}
	return nil, 0
}
func (l *slabLayout) Evict() *cache.Node {
	if n, _ := l.Victim(); n != nil {
		return l.lruFor(n).Evict()
	}
	return nil
}

// Visit walks the class LRUs in order, classes ascending, so a snapshot
// replay rebuilds every class queue in its original order.
func (l *slabLayout) Visit(visit func(n *cache.Node, prio, class uint64) bool) {
	more := true
	for i := 0; more && i < len(l.lru); i++ {
		l.lru[i].Visit(func(n *cache.Node, _, _ uint64) bool {
			more = visit(n, 0, 0)
			return more
		})
	}
}
func (*slabLayout) Prioritized() bool     { return false }
func (*slabLayout) Scale() (uint64, bool) { return 0, false }
func (*slabLayout) RestoreScale(uint64)   {}
func (l *slabLayout) Len() int {
	n := 0
	for _, c := range l.lru {
		n += c.Len()
	}
	return n
}

// Used is the chunk bytes live items occupy.
func (l *slabLayout) Used() int64 {
	var used int64
	for class, c := range l.lru {
		used += int64(c.Len()) * l.a.ChunkSize(class)
	}
	return used
}
func (l *slabLayout) Capacity() int64 { return l.st.cfg.MemoryBytes }
func (l *slabLayout) Stats() cache.Stats {
	s := cache.Stats{Evictions: l.reassigned}
	for _, c := range l.lru {
		s.Evictions += c.Stats().Evictions
	}
	return s
}
func (l *slabLayout) OnEvict(fn func(*cache.Node)) {
	for _, c := range l.lru {
		c.OnEvict(fn)
	}
}
