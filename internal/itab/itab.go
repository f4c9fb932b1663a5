// Package itab is a shard's item table: the items themselves, in fixed
// chunks that never move, and one flat open-addressing index from key to
// item.
//
// An item is named by its ref, a 32-bit slot number: chunk ref/ChunkLen,
// element ref%ChunkLen. Chunks are allocated whole and never resized or
// copied, so a pointer to an item stays valid for as long as the item is
// live — intrusive queue links between items may hold it. Freed refs go on a
// free list and are handed out again before a new chunk is allocated.
//
// The index is a power-of-two []uint64 with linear probing and no pointers,
// in the shape of GigaCache's: an entry is the top 32 bits of the key's hash
// (its tag) above ref+1, so 0 marks an empty slot. The home slot is the
// tag's top bits, which lets growth and deletion place an entry from the
// entry alone, without rehashing the key or touching the item. A probe
// compares tags and reads the item only on a tag match. The table doubles
// once it would pass 4/5 load, and deletion shifts the following run of the
// cluster back, so there are no tombstones.
package itab

import (
	"hash/maphash"
	"iter"
	"math"
)

// ChunkLen is how many items one chunk holds.
const ChunkLen = 1024

// minBits sizes an empty table's index at 1<<minBits slots.
const minBits = 3

// Keyed is what the table needs of an item: the key it is indexed under.
type Keyed[T any] interface {
	*T
	Key() string
}

// Table holds items of type T, addressed through P (= *T). The caller
// serializes all access.
type Table[T any, P Keyed[T]] struct {
	seed  maphash.Seed
	slots []uint64
	shift uint // 32 - log2(len(slots)): tag >> shift is the home slot
	n     int  // indexed items

	chunks []*[ChunkLen]T
	free   []uint32 // released refs, reused last-in first-out
	refs   uint32   // refs handed out: every ref below it is in a chunk
}

// New returns an empty table with its own hash seed.
func New[T any, P Keyed[T]]() *Table[T, P] {
	return &Table[T, P]{seed: maphash.MakeSeed(), slots: make([]uint64, 1<<minBits), shift: 32 - minBits}
}

// Alloc hands out a zero item and its ref. The item is not indexed until
// Insert; until then Release gives it back.
func (t *Table[T, P]) Alloc() (uint32, *T) {
	if n := len(t.free); n > 0 {
		ref := t.free[n-1]
		t.free = t.free[:n-1]
		return ref, t.At(ref)
	}
	if t.refs == math.MaxUint32 {
		panic("itab: out of refs") // ref+1 must fit an entry's low word
	}
	if int(t.refs) == len(t.chunks)*ChunkLen {
		t.chunks = append(t.chunks, new([ChunkLen]T))
	}
	ref := t.refs
	t.refs++
	return ref, t.At(ref)
}

// At returns the item ref names.
func (t *Table[T, P]) At(ref uint32) *T {
	return &t.chunks[ref/ChunkLen][ref%ChunkLen]
}

// Release zeroes an unindexed item, so it keeps nothing reachable, and puts
// its ref on the free list.
func (t *Table[T, P]) Release(ref uint32) {
	var zero T
	*t.At(ref) = zero
	t.free = append(t.free, ref)
}

// Insert indexes the item ref names under its key. The key must not be
// indexed already.
func (t *Table[T, P]) Insert(ref uint32) {
	if (t.n+1)*5 > len(t.slots)*4 {
		t.grow()
	}
	t.place(uint64(tagOf(t.seed, P(t.At(ref)).Key()))<<32 | uint64(ref+1))
	t.n++
}

// Delete unindexes the item ref names, then releases it. The item must be
// indexed, under the key it holds now.
func (t *Table[T, P]) Delete(ref uint32) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(uint64(tagOf(t.seed, P(t.At(ref)).Key())) << 32)
	for uint32(t.slots[i]) != ref+1 {
		if t.slots[i] == 0 {
			panic("itab: delete of an unindexed ref")
		}
		i = (i + 1) & mask
	}
	// Backward shift: walk the rest of the cluster and move each entry whose
	// home lies at or before the hole into it, so every entry stays reachable
	// from its home without a gap.
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if e := t.slots[j]; (j-t.home(e))&mask >= (j-i)&mask {
			t.slots[i] = e
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
	t.Release(ref)
}

// Lookup returns the item indexed under key, or nil. A []byte key is hashed
// and compared in place, without a string conversion.
func Lookup[T any, P Keyed[T], K ~string | ~[]byte](t *Table[T, P], key K) *T {
	tag := tagOf(t.seed, key)
	mask := uint64(len(t.slots) - 1)
	for i := t.home(uint64(tag) << 32); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return nil
		}
		if uint32(e>>32) == tag {
			if it := t.At(uint32(e) - 1); P(it).Key() == string(key) {
				return it
			}
		}
	}
}

// Len is the number of indexed items.
func (t *Table[T, P]) Len() int { return t.n }

// All yields every indexed item, in index order.
func (t *Table[T, P]) All() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		for _, e := range t.slots {
			if e != 0 && !yield(t.At(uint32(e)-1)) {
				return
			}
		}
	}
}

// Refs is how many refs the table has handed out: each is indexed, free, or
// allocated and not yet indexed.
func (t *Table[T, P]) Refs() int { return int(t.refs) }

// FreeRefs yields the refs on the free list.
func (t *Table[T, P]) FreeRefs() iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for _, ref := range t.free {
			if !yield(ref) {
				return
			}
		}
	}
}

func (t *Table[T, P]) home(e uint64) uint64 { return e >> 32 >> t.shift }

// place stores an entry in the first empty slot from its home on.
func (t *Table[T, P]) place(e uint64) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(e)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = e
}

// grow doubles the index. Each entry carries its own home, so no key is
// rehashed and no item is read.
func (t *Table[T, P]) grow() {
	if t.shift == 0 {
		panic("itab: index full") // the home slot is at most the tag's 32 bits
	}
	old := t.slots
	t.slots, t.shift = make([]uint64, 2*len(old)), t.shift-1
	for _, e := range old {
		if e != 0 {
			t.place(e)
		}
	}
}

// tagOf is the top 32 bits of key's hash. maphash hashes a string and the
// same bytes as a []byte alike.
func tagOf[K ~string | ~[]byte](seed maphash.Seed, key K) uint32 {
	var h uint64
	switch k := any(key).(type) {
	case string:
		h = maphash.String(seed, k)
	case []byte:
		h = maphash.Bytes(seed, k)
	default:
		h = maphash.String(seed, string(key))
	}
	return uint32(h >> 32)
}
