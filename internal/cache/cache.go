// Package cache defines the eviction-policy contract shared by every
// replacement algorithm in this repository, along with the baseline policies
// the CAMP paper evaluates against (LRU and Pooled LRU, §3) and the
// related-work policies discussed in §5 (ARC, 2Q, LFU, GD-Wheel).
//
// Policies manage metadata only — key, size and cost — against a fixed byte
// capacity. Storing actual values is layered on top (see the root camp
// package), which keeps the policies directly usable by the trace-driven
// simulator without materializing values.
package cache

import "errors"

// Entry describes a cached key-value pair's metadata.
type Entry struct {
	// Key identifies the key-value pair.
	Key string
	// Size is the pair's footprint in bytes.
	Size int64
	// Cost is the price paid to recompute the pair on a miss (e.g. the
	// query or computation time), in arbitrary non-negative units.
	Cost int64
}

// EvictFunc observes evictions. It must not call back into the policy.
type EvictFunc func(Entry)

// ErrTooLarge is reported (via Set returning false) when a single item
// exceeds the policy's capacity; exposed for tests and diagnostics.
var ErrTooLarge = errors.New("cache: item larger than capacity")

// Policy is an online eviction policy managing a fixed budget of bytes.
//
// Implementations are not safe for concurrent use; guard them with a mutex
// (the root camp package does this, one per shard).
type Policy interface {
	// Name returns a short identifier such as "lru" or "camp".
	Name() string

	// Get looks up key. A hit refreshes the key's recency/priority state
	// and returns true; a miss returns false. Both outcomes are counted
	// in Stats.
	Get(key string) bool

	// Set inserts key with the given size and cost, evicting items as
	// needed, or updates the existing entry in place (refreshing its
	// priority). It returns false when the item cannot be admitted
	// (size exceeds capacity or the policy's admission rules reject it).
	Set(key string, size, cost int64) bool

	// Delete removes key, reporting whether it was resident. Deletions
	// do not invoke the eviction callback.
	Delete(key string) bool

	// Contains reports residency without updating any policy state.
	Contains(key string) bool

	// Peek returns the resident entry's metadata without side effects.
	Peek(key string) (Entry, bool)

	// Len returns the number of resident items.
	Len() int

	// Used returns the total bytes occupied by resident items.
	Used() int64

	// Capacity returns the byte budget.
	Capacity() int64

	// Stats returns operation counters accumulated so far.
	Stats() Stats

	// SetEvictFunc installs a callback invoked for every eviction
	// (not for explicit Delete calls). Passing nil removes it.
	SetEvictFunc(fn EvictFunc)
}

// Stats counts policy operations. Cost accounting of misses is the
// simulator's job (it knows about cold requests); policies count only their
// own mechanics.
type Stats struct {
	// Hits is the number of Get calls that found the key.
	Hits uint64
	// Misses is the number of Get calls that did not find the key.
	Misses uint64
	// Sets is the number of Set calls that inserted a new key.
	Sets uint64
	// Updates is the number of Set calls that refreshed an existing key.
	Updates uint64
	// Evictions is the number of items removed to make room.
	Evictions uint64
	// EvictedBytes is the total size of evicted items.
	EvictedBytes uint64
	// Rejected is the number of Set calls refused admission.
	Rejected uint64
}

// Evicter is implemented by policies that can evict a single victim on
// demand, letting an external memory manager (slab or buddy allocator, §5)
// drive evictions when placement fails.
type Evicter interface {
	// EvictOne removes the policy's preferred victim, firing the
	// eviction callback, and returns it; ok is false when empty.
	EvictOne() (Entry, bool)
}

// HeapVisitor is implemented by policies whose internal priority structure
// records visited heap nodes (CAMP and GDS); it powers Figure 4.
type HeapVisitor interface {
	// HeapVisits returns the cumulative number of heap nodes visited.
	HeapVisits() uint64
	// ResetHeapVisits zeroes the counter.
	ResetHeapVisits()
}

// EvictionOrdered is implemented by policies that can enumerate resident
// entries in the order the policy would evict them — the next victim first —
// without mutating any state. Snapshots written in this order rebuild the
// policy's internal queues in their original order on a warm start, where a
// map-order snapshot scrambled them. For the priority policies (CAMP, GDS)
// order alone makes the restored schedule exact only while the live offsets
// are uniform (no evictions had raised L); restoring the offsets themselves
// is PriorityOrdered's job, and makes mid-churn snapshots exact too.
type EvictionOrdered interface {
	// VisitEvictionOrder calls visit for each resident entry in eviction
	// order, stopping early if visit returns false.
	VisitEvictionOrder(visit func(Entry) bool)
}

// PriorityOrdered extends EvictionOrdered for policies whose eviction
// schedule depends on per-entry priority state beyond recency (CAMP and
// GDS): visitation additionally exposes each entry's priority offset — its
// priority H minus the policy's global offset L — and its priority class —
// CAMP's rounded integer cost-to-size ratio, i.e. the queue the entry lives
// in — both encoded as opaque uint64s the same policy knows how to decode.
// SetWithPriority re-inserts an entry pinned to exactly that (offset,
// class). A snapshot that records both and is replayed in visitation order
// reproduces the live cross-queue eviction schedule exactly, even
// mid-churn, where re-deriving priorities from costs only restores
// within-queue order.
//
// The class must be pinned, not re-derived, because CAMP's ratio
// integerization is adaptive (rounding.Converter learns its scale from the
// sizes it has seen): a fresh policy re-deriving classes mid-restore would
// assign entries to different queues than the live cache did. Offsets are
// relative to L so they survive the restore into a fresh policy (where L
// restarts at zero) and stay meaningful after later churn raises it. An
// offset that would violate the policy's invariants (decoded from a corrupt
// or foreign snapshot) is clamped to the nearest valid priority rather than
// trusted.
type PriorityOrdered interface {
	EvictionOrdered
	// VisitEvictionPriority is VisitEvictionOrder with each entry's
	// encoded priority offset and class.
	VisitEvictionPriority(visit func(e Entry, prio, class uint64) bool)
	// SetWithPriority inserts key like Set but pins its priority to
	// L + the decoded offset, in the given class, instead of deriving
	// both from cost alone. Callers replaying a snapshot must insert in
	// visitation order.
	SetWithPriority(key string, size, cost int64, prio, class uint64) bool
}

// PriorityScaled is implemented by priority policies whose priority
// derivation carries adaptive scalar state beyond the per-entry offsets:
// CAMP's ratio integerizer learns its scale (the largest size ever seen)
// from the whole workload, including entries long since evicted. Snapshots
// persist the scale so a restored policy buckets future inserts exactly as
// the live one would have, instead of re-learning the scale from the
// resident working set alone.
type PriorityScaled interface {
	// PriorityScale returns the opaque adaptive scale word.
	PriorityScale() uint64
	// RestorePriorityScale re-installs a saved scale word. It only ever
	// widens the scale (the live scale is monotonic), so replaying it is
	// idempotent and safe in any order relative to the entries.
	RestorePriorityScale(scale uint64)
}

// VictimPeeker is implemented by policies that can name their next eviction
// victim — and how much that victim is still worth — without mutating any
// state. The urgency is the victim's priority offset above the policy's
// global floor (H − L for CAMP and GDS: the marginal cost-per-byte value the
// policy would give up by evicting it; always 0 for LRU, which values all
// victims equally). A multi-tenant arbiter compares urgencies across tenant
// policies and takes memory from the tenant whose next victim is worth the
// least, Memshare-style.
type VictimPeeker interface {
	// PeekVictim returns the entry EvictOne would remove next and its
	// urgency; ok is false when the policy is empty.
	PeekVictim() (e Entry, urgency float64, ok bool)
}

// QueueCounter is implemented by policies organized as multiple queues
// (CAMP); it powers Figures 5b and 8c.
type QueueCounter interface {
	// QueueCount returns the current number of non-empty queues.
	QueueCount() int
	// MaxQueueCount returns the high-water mark of non-empty queues.
	MaxQueueCount() int
}
