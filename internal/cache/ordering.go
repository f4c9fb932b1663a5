package cache

import "fmt"

// Node is one resident entry's metadata and its place in an Ordering. The
// caller owns the node — a store embeds it in its item, so the item its
// index finds is the thing the ordering links — and fills Key, Size and
// Cost before inserting it. A node is in at most one ordering at a time.
type Node struct {
	// prev and next link the node into its ordering's Queue.
	prev, next *Node

	Key  string
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

// Entry returns the node's metadata in the string-keyed face's form.
func (n *Node) Entry() Entry { return Entry{Key: n.Key, Size: n.Size, Cost: n.Cost} }

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
	// CheckIndex reports whether the index and the ordering disagree.
	CheckIndex() error
}

// Keyed is the string-keyed face of an Ordering — the Policy methods that
// take a key — and the only index of resident keys: every policy embeds one.
// An ordering whose caller brings its own nodes never touches it.
type Keyed struct {
	ord     Ordering
	stats   *Stats // the ordering's own counters
	items   map[string]*Node
	onEvict EvictFunc
}

// NewKeyed returns the keyed face of ord. stats points at the counters
// ord.Stats reports, so misses and updates — which only the face can tell
// from hits and inserts — land in the same place.
func NewKeyed(ord Ordering, stats *Stats) Keyed { return Keyed{ord: ord, stats: stats} }

// Get implements Policy.
func (k *Keyed) Get(key string) bool {
	n, ok := k.items[key]
	if !ok {
		k.stats.Misses++
		return false
	}
	k.ord.Touch(n)
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
		k.items = make(map[string]*Node)
		k.ord.OnEvict(k.evicted)
	}
	n, existed := k.items[key]
	if existed {
		k.ord.Remove(n)
	} else {
		n = &Node{Key: key}
	}
	n.Size, n.Cost = max(size, 0), cost
	var ok bool
	if pinned {
		ok = k.ord.InsertAt(n, prio, class)
	} else {
		ok = k.ord.Insert(n)
	}
	switch {
	case ok && existed:
		k.stats.Sets--
		k.stats.Updates++
	case ok:
		k.items[key] = n
	case existed:
		delete(k.items, key)
	}
	return ok
}

// Delete implements Policy.
func (k *Keyed) Delete(key string) bool {
	n, ok := k.items[key]
	if ok {
		k.ord.Remove(n)
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
	n, ok := k.items[key]
	if !ok {
		return Entry{}, false
	}
	return n.Entry(), true
}

// SetEvictFunc implements Policy.
func (k *Keyed) SetEvictFunc(fn EvictFunc) { k.onEvict = fn }

func (k *Keyed) evicted(n *Node) {
	delete(k.items, n.Key)
	if k.onEvict != nil {
		k.onEvict(n.Entry())
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
		if k.items[n.Key] != n {
			err = fmt.Errorf("entry %q is ordered but not indexed", n.Key)
		}
		return err == nil
	})
	if err == nil && count != len(k.items) {
		err = fmt.Errorf("ordering holds %d entries, index %d", count, len(k.items))
	}
	return err
}
