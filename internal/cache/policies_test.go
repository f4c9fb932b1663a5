package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"camp/internal/cache"
	"camp/internal/core"
)

// TestPoliciesKeepIndex drives every library policy — each row of the core
// table, a pooled LRU and CAMP behind the admission filter — through one
// seeded stream of gets, sets that grow and shrink, oversize sets and
// deletes, and checks every 1000 ops that Keyed's index and the ordering
// hold the same nodes, that Len and Used agree with what Visit walks, and
// that ARC's and 2Q's ghost maps match their ghost queues.
func TestPoliciesKeepIndex(t *testing.T) {
	const capacity = 20_000
	type policy struct {
		name  string
		build func() cache.KeyedOrdering
	}
	var policies []policy
	for _, p := range core.Policies {
		policies = append(policies, policy{p.Name, func() cache.KeyedOrdering { return p.New(capacity, core.DefaultPrecision) }})
	}
	policies = append(policies,
		policy{"pooled-lru", func() cache.KeyedOrdering {
			p, err := cache.NewPooledByRanges(capacity, []int64{1, 100, 1000})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		policy{"camp+admit", func() cache.KeyedOrdering { return cache.NewAdmission(core.NewCamp(capacity)) }},
	)
	for _, policy := range policies {
		t.Run(policy.name, func(t *testing.T) {
			p := policy.build()
			evicted := 0
			p.SetEvictFunc(func(cache.Entry) { evicted++ })
			rng := rand.New(rand.NewSource(38))
			for op := 1; op <= 40_000; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(500))
				switch r := rng.Intn(100); {
				case r < 50:
					p.Get(key)
				case r < 90:
					p.Set(key, int64(1+rng.Intn(400)), int64(1+rng.Intn(5000)))
				case r < 92:
					p.Set(key, capacity+1, 1)
				default:
					p.Delete(key)
				}
				if op%1000 == 0 {
					check(t, op, p)
				}
			}
			if evicted < 1000 {
				t.Fatalf("only %d evictions: the stream does not press the cache", evicted)
			}
		})
	}
}

func check(t *testing.T, op int, p cache.KeyedOrdering) {
	t.Helper()
	if err := p.CheckIndex(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	n, used := 0, int64(0)
	p.Visit(func(nd *cache.Node, _, _ uint64) bool {
		n++
		used += nd.Size
		return true
	})
	if n != p.Len() || used != p.Used() {
		t.Fatalf("op %d: Visit walks %d nodes of %d bytes, Len %d, Used %d", op, n, used, p.Len(), p.Used())
	}
	if used > p.Capacity() {
		t.Fatalf("op %d: %d bytes resident over capacity %d", op, used, p.Capacity())
	}
	if g, ok := p.(interface{ CheckGhosts() error }); ok {
		if err := g.CheckGhosts(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if c, ok := p.(interface{ CheckInvariants() error }); ok {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}
