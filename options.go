package camp

import (
	"fmt"

	"camp/internal/cache"
	"camp/internal/core"
)

// PolicyKind selects the eviction algorithm backing a Cache.
type PolicyKind int

// Supported eviction policies.
const (
	// CAMP is the paper's cost-adaptive multi-queue policy (default).
	CAMP PolicyKind = iota + 1
	// LRU evicts by recency only.
	LRU
	// GDS is the exact Greedy-Dual-Size algorithm.
	GDS
	// ARC is the byte-weighted Adaptive Replacement Cache (§5 related
	// work; recency/frequency adaptive, cost-oblivious).
	ARC
	// TwoQ is the full 2Q policy (§5 related work).
	TwoQ
	// LFU evicts the least frequently used item.
	LFU
	// GDWheel approximates GDS with hierarchical timing wheels (§5
	// related work).
	GDWheel
)

// String returns the policy's short name.
func (k PolicyKind) String() string {
	if k.valid() {
		return core.Policies[k-1].Name
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

func (k PolicyKind) valid() bool { return k >= 1 && int(k) <= len(core.Policies) }

type config struct {
	kind         PolicyKind
	precision    uint
	shards       int
	overhead     int64
	defaultCost  int64
	admission    uint8
	onEvict      func(Entry)
	pools        []PoolSpec
	snapshotPath string
}

// Option configures New.
type Option interface {
	apply(*config) error
}

type optionFunc func(*config) error

func (f optionFunc) apply(c *config) error { return f(c) }

// WithPolicy selects the eviction algorithm (default CAMP).
func WithPolicy(kind PolicyKind) Option {
	return optionFunc(func(c *config) error {
		if !kind.valid() {
			return fmt.Errorf("camp: unknown policy kind %d", kind)
		}
		c.kind = kind
		return nil
	})
}

// WithAdmission wraps the policy in a frequency-sketch admission filter
// (the paper's §6 future-work extension): a brand-new key may displace
// resident data only after it has been requested at least minFrequency
// times.
func WithAdmission(minFrequency uint8) Option {
	return optionFunc(func(c *config) error {
		if minFrequency < 1 {
			return fmt.Errorf("camp: admission frequency must be at least 1")
		}
		c.admission = minFrequency
		return nil
	})
}

// WithPooledPolicy selects the statically partitioned pooled-LRU policy with
// the given pool layout (mainly useful for comparisons against CAMP).
func WithPooledPolicy(pools []PoolSpec) Option {
	return optionFunc(func(c *config) error {
		if len(pools) == 0 {
			return fmt.Errorf("camp: pooled policy needs at least one pool")
		}
		c.pools = append([]PoolSpec(nil), pools...)
		c.kind = 0 // marked pooled via c.pools
		return nil
	})
}

// WithPrecision sets CAMP's ratio-rounding precision in significant bits
// (default DefaultPrecision; PrecisionInf disables rounding). It only
// affects the CAMP policy.
func WithPrecision(p uint) Option {
	return optionFunc(func(c *config) error {
		c.precision = p
		return nil
	})
}

// WithShards splits the cache into n independently locked shards; keys are
// hash-partitioned across them (§4.1 of the paper suggests exactly this for
// vertical scaling). n must be a power of two between 1 and 4096.
func WithShards(n int) Option {
	return optionFunc(func(c *config) error {
		if n < 1 || n > 4096 || n&(n-1) != 0 {
			return fmt.Errorf("camp: shard count %d must be a power of two in [1, 4096]", n)
		}
		c.shards = n
		return nil
	})
}

// WithEntryOverhead adds n bytes of bookkeeping to every entry's charged
// size, mirroring per-item metadata in production KVSs (default 0).
func WithEntryOverhead(n int64) Option {
	return optionFunc(func(c *config) error {
		if n < 0 {
			return fmt.Errorf("camp: negative entry overhead %d", n)
		}
		c.overhead = n
		return nil
	})
}

// WithDefaultCost sets the cost charged when Set is called with cost 0
// (default 1, so cost-oblivious callers degrade to size-aware caching).
func WithDefaultCost(cost int64) Option {
	return optionFunc(func(c *config) error {
		if cost < 0 {
			return fmt.Errorf("camp: negative default cost %d", cost)
		}
		c.defaultCost = cost
		return nil
	})
}

// WithSnapshotFile warm-starts the cache from the snapshot at path (written
// by SaveSnapshot) when the file exists, re-admitting entries through the
// eviction policy so CAMP's queues are rebuilt with their original costs. A
// missing file is a normal cold start. Call SaveSnapshot on shutdown to
// persist the working set for the next run.
func WithSnapshotFile(path string) Option {
	return optionFunc(func(c *config) error {
		if path == "" {
			return fmt.Errorf("camp: empty snapshot path")
		}
		c.snapshotPath = path
		return nil
	})
}

// WithEvictionHook installs a callback invoked whenever the policy evicts an
// entry. The hook runs while the affected shard's lock is held: it must be
// fast and must not call back into the Cache.
func WithEvictionHook(fn func(Entry)) Option {
	return optionFunc(func(c *config) error {
		c.onEvict = fn
		return nil
	})
}

func (c *config) buildPolicy(capacity int64) (cache.KeyedOrdering, error) {
	p, err := c.buildBase(capacity)
	if err != nil {
		return nil, err
	}
	if c.admission > 0 {
		p = cache.NewAdmission(p, cache.WithMinFrequency(c.admission))
	}
	return p, nil
}

func (c *config) buildBase(capacity int64) (cache.KeyedOrdering, error) {
	switch {
	case c.pools != nil:
		return cache.NewPooled(capacity, c.pools)
	case c.kind.valid():
		return core.Policies[c.kind-1].New(capacity, c.precision), nil
	default:
		return nil, fmt.Errorf("camp: no policy configured")
	}
}
