package kvserver

import (
	"fmt"

	"camp/internal/alloc"
	"camp/internal/cache"
	"camp/internal/itab"
	"camp/internal/kvbuf"
)

// layout is one of the two memory-management schemes: malloc-style byte mode
// and the Memshare-style packed arena. It owns the one decision the rest of
// the server must not know: where value bytes live and what an item's loc
// word means. The store calls it under the shard lock; a layout under memory
// pressure frees space through the store it was built for
// (store.evictArbitratedBatch).
type layout interface {
	// put lands one value and returns where it lives and the size its
	// ordering is to be charged for it. requester is that ordering: the
	// evictions put needs are arbitrated on its behalf.
	put(requester cache.Ordering, key string, value []byte, flags uint32, expNano int64) (loc uint64, charged int64, ok bool)
	// value returns an item's value. Under a copying layout the slice aliases
	// layout memory that maintain and put may move: consume or copy it before
	// the shard lock drops.
	value(it *item) []byte
	// release frees whatever put reserved at loc.
	release(loc uint64)
	// touch records a new expiry (unix nanoseconds, 0 = none) at loc.
	touch(loc uint64, expNano int64)
	// maintain donates one bounded step of housekeeping after a mutation.
	maintain()
	// stats reports packed-segment accounting; ok is false in byte mode,
	// which has none.
	stats() (as alloc.ArenaStats, ok bool)
	// copiesValues reports whether put copies the caller's slice (so callers
	// may reuse it, and must read values back through value under the lock)
	// instead of the item retaining it.
	copiesValues() bool
}

// newLayout builds st's layout.
func newLayout(st *store) (layout, error) {
	switch st.cfg.Mode {
	case ModeByte:
		return byteLayout{st: st}, nil
	case ModeArena:
		a, err := alloc.NewArena(st.cfg.MemoryBytes, st.cfg.ArenaSegment)
		if err != nil {
			return nil, err
		}
		l := &arenaLayout{st: st, a: a}
		// Bound once so the per-mutation compaction steps never allocate a
		// closure.
		l.alive, l.moved = l.isAlive, l.relocated
		return l, nil
	default:
		return nil, fmt.Errorf("%w: unknown mode %q", errBadConfig, st.cfg.Mode)
	}
}

// byteLayout is malloc mode: values are plain heap slices the items retain,
// so there is nothing to read back, move or touch, and the policy is charged
// the exact item size.
type byteLayout struct {
	st *store
}

func (l byteLayout) put(_ cache.Ordering, key string, value []byte, _ uint32, _ int64) (uint64, int64, bool) {
	return 0, l.st.itemSize(key, value), true
}
func (byteLayout) value(it *item) []byte           { return kvbuf.Value(it.kv) }
func (byteLayout) release(uint64)                  {}
func (byteLayout) touch(uint64, int64)             {}
func (byteLayout) maintain()                       {}
func (byteLayout) stats() (alloc.ArenaStats, bool) { return alloc.ArenaStats{}, false }
func (byteLayout) copiesValues() bool              { return false }

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

func (l *arenaLayout) value(it *item) []byte { return l.a.Value(alloc.RefOf(it.loc)) }
func (l *arenaLayout) release(loc uint64)    { l.a.Release(alloc.RefOf(loc)) }

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
