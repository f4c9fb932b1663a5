// Package cache defines the eviction-policy contract shared by every
// replacement algorithm in this repository, along with the baseline policies
// the CAMP paper evaluates against (LRU and Pooled LRU, §3) and the
// related-work policies discussed in §5 (ARC, 2Q, LFU, GD-Wheel).
//
// Policies manage metadata only — key, size and cost — against a fixed byte
// capacity. Storing actual values is layered on top (see the root camp
// package), which keeps the policies directly usable by the trace-driven
// simulator without materializing values.
//
// LRU, CAMP and GDS are written once, as an Ordering over Nodes the caller
// owns (ordering.go): a store that already indexes its items embeds a Node in
// each and never pays for a second key lookup. Keyed adds the one key index
// that turns such an ordering into a string-keyed Policy.
package cache

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

// HeapVisitor is implemented by policies whose internal priority structure
// records visited heap nodes (CAMP and GDS); it powers Figure 4.
type HeapVisitor interface {
	// HeapVisits returns the cumulative number of heap nodes visited.
	HeapVisits() uint64
	// ResetHeapVisits zeroes the counter.
	ResetHeapVisits()
}

// PriorityOrdered is implemented by the string-keyed face of every ordering
// (Keyed): SetWithPriority re-inserts an entry pinned to the (offset, class)
// a previous Ordering.Visit reported, which is how a snapshot replay
// reproduces the live eviction schedule exactly.
type PriorityOrdered interface {
	// SetWithPriority inserts key like Set but through Ordering.InsertAt.
	// Callers replaying a snapshot must insert in visitation order.
	SetWithPriority(key string, size, cost int64, prio, class uint64) bool
}

// QueueCounter is implemented by policies organized as multiple queues
// (CAMP); it powers Figures 5b and 8c.
type QueueCounter interface {
	// QueueCount returns the current number of non-empty queues.
	QueueCount() int
	// MaxQueueCount returns the high-water mark of non-empty queues.
	MaxQueueCount() int
}
