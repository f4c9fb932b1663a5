package core

import "camp/internal/cache"

// PolicySpec is one row of Policies.
type PolicySpec struct {
	// Name is the policy's short name: camp.PolicyKind's String and the
	// server's -policy value.
	Name string
	// Served reports whether the server hosts the policy.
	Served bool
	// New builds the policy over capacity bytes. precision is CAMP's ratio
	// rounding; the other policies ignore it.
	New func(capacity int64, precision uint) cache.KeyedOrdering
}

// Policies is the one table of eviction policies, in camp.PolicyKind order
// (kind k is row k-1). The pooled LRU is not a row: it needs its pools.
var Policies = [...]PolicySpec{
	{"camp", true, func(c int64, p uint) cache.KeyedOrdering { return NewCamp(c, WithPrecision(p)) }},
	{"lru", true, func(c int64, _ uint) cache.KeyedOrdering { return cache.NewLRU(c) }},
	{"gds", true, func(c int64, _ uint) cache.KeyedOrdering { return NewGDS(c) }},
	{"arc", false, func(c int64, _ uint) cache.KeyedOrdering { return cache.NewARC(c) }},
	{"2q", false, func(c int64, _ uint) cache.KeyedOrdering { return cache.NewTwoQ(c) }},
	{"lfu", false, func(c int64, _ uint) cache.KeyedOrdering { return cache.NewLFU(c) }},
	{"gdwheel", false, func(c int64, _ uint) cache.KeyedOrdering { return cache.NewGDWheel(c) }},
}
