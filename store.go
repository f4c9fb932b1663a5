package camp

import (
	"fmt"
	"hash/maphash"
	"sync"

	"camp/internal/cache"
)

// Cache is a thread-safe, value-storing cache with a pluggable
// cost/size-aware eviction policy (CAMP by default). Keys are hashed across
// one or more independently locked shards.
type Cache struct {
	shards   []*shard
	seed     maphash.Seed
	mask     uint64
	overhead int64
	defCost  int64
	snapPath string

	loaderOnce sync.Once
	loader     *loader
}

type shard struct {
	mu     sync.Mutex
	policy cache.KeyedOrdering
	values map[string][]byte
}

// New returns a Cache with the given total byte capacity. By default it uses
// the CAMP policy at DefaultPrecision with a single shard.
func New(capacity int64, opts ...Option) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("camp: capacity must be positive, got %d", capacity)
	}
	cfg := config{
		kind:        CAMP,
		precision:   DefaultPrecision,
		shards:      1,
		defaultCost: 1,
	}
	for _, o := range opts {
		if err := o.apply(&cfg); err != nil {
			return nil, err
		}
	}
	c := &Cache{
		shards:   make([]*shard, cfg.shards),
		seed:     maphash.MakeSeed(),
		mask:     uint64(cfg.shards - 1),
		overhead: cfg.overhead,
		defCost:  cfg.defaultCost,
	}
	per := capacity / int64(cfg.shards)
	rem := capacity % int64(cfg.shards)
	for i := range c.shards {
		shardCap := per
		if i == 0 {
			shardCap += rem
		}
		p, err := cfg.buildPolicy(shardCap)
		if err != nil {
			return nil, err
		}
		s := &shard{policy: p, values: make(map[string][]byte)}
		hook := cfg.onEvict
		p.SetEvictFunc(func(e Entry) {
			delete(s.values, e.Key)
			if hook != nil {
				hook(e)
			}
		})
		c.shards[i] = s
	}
	if cfg.snapshotPath != "" {
		c.snapPath = cfg.snapshotPath
		if err := c.loadSnapshotFile(cfg.snapshotPath); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Get returns the value cached under key, refreshing its priority. The
// returned slice is the cached one: callers must not modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.policy.Get(key) {
		return nil, false
	}
	return s.values[key], true
}

// Set caches value under key with the given recomputation cost, evicting
// colder entries as needed. A cost of 0 is replaced by the configured
// default cost. It reports whether the entry was admitted. The value slice
// is retained; callers must not modify it afterwards.
func (c *Cache) Set(key string, value []byte, cost int64) bool {
	size := int64(len(key)) + int64(len(value)) + c.overhead
	return c.SetSized(key, value, size, cost)
}

// SetSized is Set with an explicit charged size, for callers whose values
// have a footprint different from len(value) (compressed entries, handles to
// off-heap data, and so on).
func (c *Cache) SetSized(key string, value []byte, size, cost int64) bool {
	if cost <= 0 {
		cost = c.defCost
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.policy.Set(key, size, cost) {
		// The policy may have dropped a previous version of the entry
		// on a failed re-admit; keep the value map in sync.
		if !s.policy.Contains(key) {
			delete(s.values, key)
		}
		return false
	}
	s.values[key] = value
	return true
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.policy.Delete(key) {
		return false
	}
	delete(s.values, key)
	return true
}

// Contains reports residency without touching priorities.
func (c *Cache) Contains(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Contains(key)
}

// Peek returns the entry's metadata without refreshing its priority.
func (c *Cache) Peek(key string) (Entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Peek(key)
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.policy.Len()
		s.mu.Unlock()
	}
	return n
}

// Used returns the total charged bytes across shards.
func (c *Cache) Used() int64 {
	var u int64
	for _, s := range c.shards {
		s.mu.Lock()
		u += s.policy.Used()
		s.mu.Unlock()
	}
	return u
}

// Capacity returns the total configured capacity.
func (c *Cache) Capacity() int64 {
	var t int64
	for _, s := range c.shards {
		t += s.policy.Capacity()
	}
	return t
}

// Stats returns operation counters summed across shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st := s.policy.Stats()
		s.mu.Unlock()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Sets += st.Sets
		out.Updates += st.Updates
		out.Evictions += st.Evictions
		out.EvictedBytes += st.EvictedBytes
		out.Rejected += st.Rejected
	}
	return out
}

// QueueCount returns the number of non-empty CAMP LRU queues summed across
// shards, or 0 for non-CAMP policies.
func (c *Cache) QueueCount() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		if qc, ok := s.policy.(cache.QueueCounter); ok {
			n += qc.QueueCount()
		}
		s.mu.Unlock()
	}
	return n
}

// Shards returns the number of shards.
func (c *Cache) Shards() int { return len(c.shards) }

func (c *Cache) shardFor(key string) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := maphash.String(c.seed, key)
	return c.shards[h&c.mask]
}
