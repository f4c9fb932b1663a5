package cache

import (
	"fmt"
	"unsafe"
)

// Node is one resident entry's metadata and its place in an Ordering. The
// caller owns the node — a store embeds it first in its item, so the item
// its index finds is the thing the ordering links — and fills Size and Cost
// before inserting it; the key stays the owner's (KeyOf). A node is in at
// most one ordering at a time.
type Node struct {
	// prev and next link the node into its ordering's Queue.
	prev, next *Node

	Size int64
	Cost int64

	// H, Seq and Aux belong to the ordering the node is linked in: the
	// entry's priority (an integer for CAMP and GD-Wheel, float64 bits for
	// GDS, the frequency for LFU), its tie-breaking request sequence or last
	// touch, and CAMP's queue id, GDS's or LFU's heap slot, GD-Wheel's wheel
	// slot, ARC's or 2Q's list or Pooled's pool. Callers neither read nor
	// write them, except that a fresh node starts with all three zero.
	H, Seq, Aux uint64
}

// Container steps from a node an ordering hands back to the T that embeds
// it, with no index probe. T's first field must be a Node and n that field
// of a live T (or nil); checkptr, on under -race, catches a T that overruns.
func Container[T any](n *Node) *T { return (*T)(unsafe.Pointer(n)) }

// keyedNode is a node with its key: the keyed face's entries and ghosts.
type keyedNode struct {
	Node
	key string
}

func entryOf(n *Node) *keyedNode { return Container[keyedNode](n) }

// Ordering is an eviction policy reduced to what it is: an order over nodes
// somebody else indexes. It never looks a key up. Implementations are not
// safe for concurrent use.
//
// Priority policies (CAMP, GDS) expose each entry's priority offset — its
// priority H minus the global offset L — and class — CAMP's rounded
// cost-to-size ratio, the queue the entry lives in — as opaque words only
// the same policy can decode. Visit reports them and InsertAt pins them, so
// a snapshot replayed in visitation order reproduces the live cross-queue
// eviction schedule exactly, even mid-churn. The class must be pinned
// rather than re-derived because CAMP's ratio integerization is adaptive;
// offsets are relative to L so they survive the restore into a fresh
// ordering, where L restarts at zero.
//
// A node that is Removed and then Inserted again is an update, and the
// ordering may read the words it left there (ARC promotes a resident update,
// LFU counts it as one more use); a fresh node has all three words zero.
// Keyed.set and the server's stores both follow this protocol.
type Ordering interface {
	// Name returns a short identifier such as "lru" or "camp".
	Name() string

	// Insert links a detached node, evicting others until n.Size fits. It
	// returns false, leaving n detached, when the node cannot be admitted.
	Insert(n *Node) bool
	// InsertAt is Insert with the priority pinned to L + the decoded offset
	// in the given class. An offset that would violate the policy's
	// invariants (decoded from a corrupt or foreign snapshot) is clamped to
	// the nearest valid priority rather than trusted.
	InsertAt(n *Node, prio, class uint64) bool
	// Touch records a hit on a linked node, refreshing its recency and
	// priority.
	Touch(n *Node)
	// Remove unlinks a linked node without firing the eviction callback.
	Remove(n *Node)

	// Victim returns the node Evict would remove next and its urgency: the
	// victim's priority offset H − L, the marginal cost-per-byte value the
	// policy would give up (always 0 for LRU). n is nil when empty. A
	// multi-tenant arbiter compares urgencies across orderings and takes
	// memory from the one whose victim is worth the least, Memshare-style.
	Victim() (n *Node, urgency float64)
	// Evict unlinks and returns the victim after firing the eviction
	// callback; nil when empty.
	Evict() *Node
	// Visit calls visit for each node in eviction order — the next victim
	// first — with its priority offset and class, without mutating any
	// state, stopping early if visit returns false.
	Visit(visit func(n *Node, prio, class uint64) bool)
	// Prioritized reports whether the offsets Visit yields carry state that
	// order alone does not (false for LRU, whose order is its whole state).
	Prioritized() bool
	// Scale returns the adaptive scalar state priority derivation carries
	// beyond the per-entry offsets — CAMP's ratio integerizer learns its
	// scale from the whole workload, including entries long evicted; ok is
	// false for orderings with none.
	Scale() (scale uint64, ok bool)
	// RestoreScale re-installs a saved scale. It only ever widens the scale,
	// so replaying it is idempotent and safe in any order relative to the
	// entries.
	RestoreScale(scale uint64)

	// Len returns the number of linked nodes.
	Len() int
	// Used returns the total Size of linked nodes.
	Used() int64
	// Capacity returns the byte budget.
	Capacity() int64
	// Stats returns operation counters accumulated so far.
	Stats() Stats
	// OnEvict installs the callback Evict (and Insert's own evictions) fire
	// with the unlinked victim. It must not call back into the ordering.
	OnEvict(fn func(*Node))
	// KeyOf installs the hook that names a node's key, which ARC and 2Q
	// remember past eviction. A caller that brings its own nodes installs
	// one before the first Insert; it must not call back into the ordering.
	KeyOf(fn func(*Node) string)
}

// KeyedOrdering is an Ordering together with its Keyed face. Every policy
// this package and core build is one.
type KeyedOrdering interface {
	Ordering
	Policy
	// SetWithPriority inserts key like Set but through Ordering.InsertAt,
	// pinned to the (offset, class) a previous Visit reported: replayed in
	// visitation order, a snapshot reproduces the live eviction schedule
	// exactly.
	SetWithPriority(key string, size, cost int64, prio, class uint64) bool
	// Key returns a linked node's key, through the KeyOf hook.
	Key(n *Node) string
	// CheckIndex reports whether the index and the ordering disagree.
	CheckIndex() error
}

// Keyed is the string-keyed face of an Ordering — the Policy methods that
// take a key — and the only index of resident keys: every policy embeds one.
// It also holds what every ordering shares: the node owner's OnEvict and
// KeyOf hooks, which are all an ordering whose caller brings its own nodes
// uses of it.
type Keyed struct {
	ord     Ordering
	stats   *Stats // the ordering's own counters
	items   map[string]*keyedNode
	onEvict EvictFunc
	// The node owner's hooks, installed through OnEvict and KeyOf.
	evictHook func(*Node)
	keyOf     func(*Node) string
}

// NewKeyed returns the keyed face of ord. stats points at the counters
// ord.Stats reports, so misses and updates — which only the face can tell
// from hits and inserts — land in the same place.
func NewKeyed(ord Ordering, stats *Stats) Keyed {
	return Keyed{ord: ord, stats: stats, keyOf: func(n *Node) string { return entryOf(n).key }}
}

// OnEvict implements Ordering for every ordering that embeds the face.
func (k *Keyed) OnEvict(fn func(*Node)) { k.evictHook = fn }

// NotifyEvict fires the OnEvict hook with a victim its ordering has just
// unlinked; every ordering's Evict ends with it.
func (k *Keyed) NotifyEvict(n *Node) {
	if k.evictHook != nil {
		k.evictHook(n)
	}
}

// KeyOf implements Ordering for every ordering that embeds the face.
func (k *Keyed) KeyOf(fn func(*Node) string) { k.keyOf = fn }

// Key implements KeyedOrdering.
func (k *Keyed) Key(n *Node) string { return k.keyOf(n) }

// Prioritized, Scale and RestoreScale implement Ordering for an ordering
// with no priority state to export — its order is its whole state, or, like
// GD-Wheel's, its priorities are re-derived on restore. CAMP shadows all
// three, GDS (whose float ratios need no learned scale) Prioritized alone.
func (k *Keyed) Prioritized() bool { return false }

// Scale implements Ordering: see Prioritized.
func (k *Keyed) Scale() (uint64, bool) { return 0, false }

// RestoreScale implements Ordering: see Prioritized.
func (k *Keyed) RestoreScale(uint64) {}

// Get implements Policy.
func (k *Keyed) Get(key string) bool {
	e, ok := k.items[key]
	if !ok {
		k.stats.Misses++
		return false
	}
	k.ord.Touch(&e.Node)
	return true
}

// Set implements Policy.
func (k *Keyed) Set(key string, size, cost int64) bool {
	return k.set(key, size, cost, 0, 0, false)
}

// SetWithPriority implements KeyedOrdering.
func (k *Keyed) SetWithPriority(key string, size, cost int64, prio, class uint64) bool {
	return k.set(key, size, cost, prio, class, true)
}

// set re-admits an existing key's node detached, so eviction can never pick
// the entry itself; a refused update drops the entry.
func (k *Keyed) set(key string, size, cost int64, prio, class uint64, pinned bool) bool {
	if k.items == nil {
		k.items = make(map[string]*keyedNode)
		k.OnEvict(k.evicted)
	}
	e, existed := k.items[key]
	if existed {
		k.ord.Remove(&e.Node)
	} else {
		e = &keyedNode{key: key}
	}
	e.Size, e.Cost = max(size, 0), cost
	var ok bool
	if pinned {
		ok = k.ord.InsertAt(&e.Node, prio, class)
	} else {
		ok = k.ord.Insert(&e.Node)
	}
	switch {
	case ok && existed:
		k.stats.Sets--
		k.stats.Updates++
	case ok:
		k.items[key] = e
	case existed:
		delete(k.items, key)
	}
	return ok
}

// Delete implements Policy.
func (k *Keyed) Delete(key string) bool {
	e, ok := k.items[key]
	if ok {
		k.ord.Remove(&e.Node)
		delete(k.items, key)
	}
	return ok
}

// Contains implements Policy.
func (k *Keyed) Contains(key string) bool {
	_, ok := k.items[key]
	return ok
}

// Peek implements Policy.
func (k *Keyed) Peek(key string) (Entry, bool) {
	e, ok := k.items[key]
	if !ok {
		return Entry{}, false
	}
	return Entry{Key: e.key, Size: e.Size, Cost: e.Cost}, true
}

// SetEvictFunc implements Policy.
func (k *Keyed) SetEvictFunc(fn EvictFunc) { k.onEvict = fn }

func (k *Keyed) evicted(n *Node) {
	e := entryOf(n)
	delete(k.items, e.key)
	if k.onEvict != nil {
		k.onEvict(Entry{Key: e.key, Size: e.Size, Cost: e.Cost})
	}
}

// CheckIndex validates that the key index and the ordering hold exactly the
// same nodes; an ordering driven through its own nodes has no index to check.
func (k *Keyed) CheckIndex() error {
	if k.items == nil {
		return nil
	}
	count := 0
	var err error
	k.ord.Visit(func(n *Node, _, _ uint64) bool {
		count++
		if e := entryOf(n); k.items[e.key] != e {
			err = fmt.Errorf("entry %q is ordered but not indexed", e.key)
		}
		return err == nil
	})
	if err == nil && count != len(k.items) {
		err = fmt.Errorf("ordering holds %d entries, index %d", count, len(k.items))
	}
	return err
}
