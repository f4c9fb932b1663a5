// Package alloc provides the two memory-placement substrates discussed in
// §5 of the CAMP paper: the Twemcache-style slab allocator (with its
// calcification failure mode and random slab eviction escape hatch) and a
// classic buddy allocator, which the paper proposes pairing with CAMP to
// separate space allocation from replacement decisions.
package alloc

import (
	"errors"
	"fmt"
	"math/rand"
)

// Slab allocator defaults mirroring Twemcache (§5): 1 MiB slabs, a smallest
// chunk of 120 bytes, and chunk sizes growing by a factor of 1.25 per class.
const (
	DefaultSlabSize   = 1 << 20
	DefaultMinChunk   = 120
	DefaultGrowFactor = 1.25
)

// ErrNoMemory is returned when an allocation cannot be satisfied without
// evicting something.
var ErrNoMemory = errors.New("alloc: out of memory")

// ErrTooLarge is returned when a request exceeds the largest chunk size.
var ErrTooLarge = errors.New("alloc: item larger than largest slab class")

// Handle identifies an allocated chunk.
type Handle struct {
	class int
	slab  int
	chunk int
}

// Class returns the slab class of the allocation.
func (h Handle) Class() int { return h.class }

// handleBits is the width of the slab and chunk fields in a handle word.
const handleBits = 24

// Word packs the handle into one word — class, slab, chunk from the top in
// 16, 24 and 24 bits (NewSlabAllocator refuses geometries beyond that) — for
// holders that index allocations by a single location word.
func (h Handle) Word() uint64 {
	return uint64(h.class)<<(2*handleBits) | uint64(h.slab)<<handleBits | uint64(h.chunk)
}

// HandleOf rebuilds the Handle a Word came from.
func HandleOf(w uint64) Handle {
	const mask = 1<<handleBits - 1
	return Handle{class: int(w >> (2 * handleBits)), slab: int(w >> handleBits & mask), chunk: int(w & mask)}
}

// SlabAllocator implements Twemcache's memory layout: memory is carved into
// fixed-size slabs, each permanently assigned to a class that subdivides it
// into equal chunks. Once a slab joins a class it never leaves — the
// calcification limitation §5 describes — except via ReassignRandomSlab,
// which models Twemcache's random slab eviction.
type SlabAllocator struct {
	slabSize   int64
	maxSlabs   int
	chunkSizes []int64
	slabs      []*slab
	classes    []classState
	rng        *rand.Rand
}

type slab struct {
	id     int
	class  int
	owners map[int]string // occupied chunk index -> owner tag
}

type classState struct {
	slabIDs []int
	free    []Handle // free chunks
}

// SlabOption configures NewSlabAllocator.
type SlabOption func(*slabConfig)

type slabConfig struct {
	slabSize int64
	minChunk int64
	factor   float64
	seed     int64
}

// WithSlabSize overrides the 1 MiB slab size.
func WithSlabSize(n int64) SlabOption {
	return func(c *slabConfig) { c.slabSize = n }
}

// WithMinChunk overrides the smallest chunk size (class 1).
func WithMinChunk(n int64) SlabOption {
	return func(c *slabConfig) { c.minChunk = n }
}

// WithGrowFactor overrides the per-class chunk growth factor.
func WithGrowFactor(f float64) SlabOption {
	return func(c *slabConfig) { c.factor = f }
}

// WithSlabSeed seeds the random slab eviction choice, for deterministic
// tests.
func WithSlabSeed(seed int64) SlabOption {
	return func(c *slabConfig) { c.seed = seed }
}

// NewSlabAllocator creates an allocator managing totalMem bytes.
func NewSlabAllocator(totalMem int64, opts ...SlabOption) (*SlabAllocator, error) {
	cfg := slabConfig{
		slabSize: DefaultSlabSize,
		minChunk: DefaultMinChunk,
		factor:   DefaultGrowFactor,
		seed:     1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.slabSize <= 0 || cfg.minChunk <= 0 {
		return nil, fmt.Errorf("alloc: slab size and min chunk must be positive")
	}
	if cfg.minChunk > cfg.slabSize {
		return nil, fmt.Errorf("alloc: min chunk %d exceeds slab size %d", cfg.minChunk, cfg.slabSize)
	}
	if cfg.factor <= 1 {
		return nil, fmt.Errorf("alloc: growth factor must exceed 1")
	}
	maxSlabs := int(totalMem / cfg.slabSize)
	if maxSlabs < 1 {
		return nil, fmt.Errorf("alloc: total memory %d below one slab (%d)", totalMem, cfg.slabSize)
	}
	var sizes []int64
	for sz := cfg.minChunk; sz < cfg.slabSize; {
		sizes = append(sizes, sz)
		next := int64(float64(sz) * cfg.factor)
		if next == sz {
			next = sz + 1
		}
		sz = next
	}
	sizes = append(sizes, cfg.slabSize) // largest class: one chunk per slab
	if len(sizes) > 1<<16 || maxSlabs > 1<<handleBits || cfg.slabSize/cfg.minChunk > 1<<handleBits {
		return nil, fmt.Errorf("alloc: slab geometry exceeds the handle word (%d classes, %d slabs)", len(sizes), maxSlabs)
	}
	return &SlabAllocator{
		slabSize:   cfg.slabSize,
		maxSlabs:   maxSlabs,
		chunkSizes: sizes,
		classes:    make([]classState, len(sizes)),
		rng:        rand.New(rand.NewSource(cfg.seed)),
	}, nil
}

// NumClasses returns the number of slab classes.
func (a *SlabAllocator) NumClasses() int { return len(a.chunkSizes) }

// ChunkSize returns the chunk size of class i (0-based).
func (a *SlabAllocator) ChunkSize(i int) int64 { return a.chunkSizes[i] }

// ClassFor returns the smallest class whose chunks fit size bytes, or an
// error when the size exceeds the largest class.
func (a *SlabAllocator) ClassFor(size int64) (int, error) {
	if size > a.chunkSizes[len(a.chunkSizes)-1] {
		return 0, ErrTooLarge
	}
	lo, hi := 0, len(a.chunkSizes)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if a.chunkSizes[mid] < size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Alloc places an item of the given size owned by owner. It follows §5's
// three-step strategy (free chunk, then a fresh slab); when both fail it
// returns ErrNoMemory and the caller decides what to evict (step 4).
func (a *SlabAllocator) Alloc(owner string, size int64) (Handle, error) {
	class, err := a.ClassFor(size)
	if err != nil {
		return Handle{}, err
	}
	cs := &a.classes[class]
	// Step 2 (step 1, expired replacement, is the server's business):
	// reuse a free chunk of the matching class.
	if n := len(cs.free); n > 0 {
		h := cs.free[n-1]
		cs.free = cs.free[:n-1]
		a.slabs[h.slab].owners[h.chunk] = owner
		return h, nil
	}
	// Step 3: allocate a new slab for this class.
	if len(a.slabs) < a.maxSlabs {
		id := len(a.slabs)
		a.slabs = append(a.slabs, &slab{id: id, class: class, owners: make(map[int]string)})
		cs.slabIDs = append(cs.slabIDs, id)
		chunks := int(a.slabSize / a.chunkSizes[class])
		for c := chunks - 1; c >= 1; c-- {
			cs.free = append(cs.free, Handle{class: class, slab: id, chunk: c})
		}
		a.slabs[id].owners[0] = owner
		return Handle{class: class, slab: id, chunk: 0}, nil
	}
	// Step 4 is an eviction decision: out of scope for the allocator.
	return Handle{}, ErrNoMemory
}

// Free releases a chunk back to its class's free list.
func (a *SlabAllocator) Free(h Handle) {
	if h.slab < 0 || h.slab >= len(a.slabs) {
		panic("alloc: Free of invalid handle")
	}
	s := a.slabs[h.slab]
	if _, ok := s.owners[h.chunk]; !ok {
		panic("alloc: double free")
	}
	delete(s.owners, h.chunk)
	a.classes[s.class].free = append(a.classes[s.class].free, Handle{class: s.class, slab: h.slab, chunk: h.chunk})
}

// Owner returns the owner tag of an allocated chunk.
func (a *SlabAllocator) Owner(h Handle) (string, bool) {
	if h.slab < 0 || h.slab >= len(a.slabs) {
		return "", false
	}
	o, ok := a.slabs[h.slab].owners[h.chunk]
	return o, ok
}

// HasFreeChunk reports whether class has an immediately reusable chunk or a
// fresh slab could be allocated for it.
func (a *SlabAllocator) HasFreeChunk(class int) bool {
	return len(a.classes[class].free) > 0 || len(a.slabs) < a.maxSlabs
}

// ReassignRandomSlab implements Twemcache's random slab eviction: a random
// slab belonging to a *different* class is emptied and reassigned to
// toClass. It returns the owner tags of every chunk that was occupied so
// the caller can purge those items, and false when no donor slab exists.
func (a *SlabAllocator) ReassignRandomSlab(toClass int) ([]string, bool) {
	var donors []int
	for _, s := range a.slabs {
		if s.class != toClass {
			donors = append(donors, s.id)
		}
	}
	if len(donors) == 0 {
		return nil, false
	}
	victim := a.slabs[donors[a.rng.Intn(len(donors))]]
	evicted := make([]string, 0, len(victim.owners))
	for _, owner := range victim.owners {
		evicted = append(evicted, owner)
	}
	victim.owners = make(map[int]string)

	// Remove the slab from its old class: drop free-list entries and the
	// slab id.
	old := &a.classes[victim.class]
	keptFree := old.free[:0]
	for _, h := range old.free {
		if h.slab != victim.id {
			keptFree = append(keptFree, h)
		}
	}
	old.free = keptFree
	keptIDs := old.slabIDs[:0]
	for _, id := range old.slabIDs {
		if id != victim.id {
			keptIDs = append(keptIDs, id)
		}
	}
	old.slabIDs = keptIDs

	// Join the new class with a full complement of free chunks.
	victim.class = toClass
	cs := &a.classes[toClass]
	cs.slabIDs = append(cs.slabIDs, victim.id)
	chunks := int(a.slabSize / a.chunkSizes[toClass])
	for c := chunks - 1; c >= 0; c-- {
		cs.free = append(cs.free, Handle{class: toClass, slab: victim.id, chunk: c})
	}
	return evicted, true
}

// ClassStats describes one slab class's occupancy.
type ClassStats struct {
	ChunkSize  int64
	Slabs      int
	UsedChunks int
	FreeChunks int
}

// Stats returns per-class occupancy, indexable by class id.
func (a *SlabAllocator) Stats() []ClassStats {
	out := make([]ClassStats, len(a.chunkSizes))
	for i := range out {
		out[i].ChunkSize = a.chunkSizes[i]
		out[i].Slabs = len(a.classes[i].slabIDs)
		out[i].FreeChunks = len(a.classes[i].free)
		for _, id := range a.classes[i].slabIDs {
			out[i].UsedChunks += len(a.slabs[id].owners)
		}
	}
	return out
}

// SlabsAllocated returns the number of slabs carved so far.
func (a *SlabAllocator) SlabsAllocated() int { return len(a.slabs) }

// MaxSlabs returns the slab budget.
func (a *SlabAllocator) MaxSlabs() int { return a.maxSlabs }
