package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"camp/internal/cache"
	"camp/internal/core"
)

// TestEvictionDifferential is ROADMAP 6: the ordering decides what goes, and
// where the bytes live must not change its mind. One seeded op stream — sets
// with mixed sizes and costs, overwrites that grow and shrink, gets, deletes,
// against a cache a quarter the size of the key space's bytes — is driven
// through the string-keyed policy, a byte-mode store and an arena-mode store,
// all charged the same sizes. The three must evict the same keys in the same
// order and end with the same residents in the same eviction order. It runs
// every policy of the core table and a pooled LRU over cost ranges; the
// stores host the ones the server does not serve by having the ordering
// swapped into a fresh single-tenant store.
func TestEvictionDifferential(t *testing.T) {
	const (
		mem  = 48 << 10
		keys = 600
		ops  = 30_000
	)
	type policy struct {
		name  string
		build func() cache.KeyedOrdering
	}
	var policies []policy
	for _, p := range core.Policies {
		policies = append(policies, policy{p.Name, func() cache.KeyedOrdering { return p.New(mem, core.DefaultPrecision) }})
	}
	policies = append(policies, policy{"pooled-lru", func() cache.KeyedOrdering {
		p, err := cache.NewPooledByRanges(mem, []int64{1, 100, 500})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}})
	for _, policy := range policies {
		t.Run(policy.name, func(t *testing.T) {
			type subject struct {
				name    string
				set     func(key string, value []byte, cost int64)
				get     func(key string)
				del     func(key string)
				visit   func(func(n *cache.Node, prio, class uint64) bool)
				victims []string
			}
			var subjects []*subject

			keyed := policy.build()
			ks := &subject{name: "keyed", visit: keyed.Visit}
			ks.get = func(key string) { keyed.Get(key) }
			ks.del = func(key string) { keyed.Delete(key) }
			keyed.SetEvictFunc(func(e cache.Entry) { ks.victims = append(ks.victims, e.Key) })
			subjects = append(subjects, ks)

			var stores []*store
			for _, mode := range []string{ModeByte, ModeArena} {
				srv, err := New(Config{MemoryBytes: mem, Shards: 1, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				st := srv.shards[0].store
				st.policy = policy.build()
				s := &subject{name: mode, visit: st.policy.Visit}
				s.set = func(key string, value []byte, cost int64) { st.setAbs(key, value, 0, 0, cost) }
				s.get = func(key string) { lookup(st, key, 0) }
				s.del = func(key string) { st.delete(key) }
				st.policy.OnEvict(func(n *cache.Node) {
					s.victims = append(s.victims, n.Key)
					st.onEvict(n)
				})
				subjects = append(subjects, s)
				stores = append(stores, st)
			}
			sizeOf := stores[0].itemSize
			ks.set = func(key string, value []byte, cost int64) { keyed.Set(key, sizeOf(key, value), cost) }

			rng := rand.New(rand.NewSource(15))
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%03d", rng.Intn(keys))
				switch r := rng.Float64(); {
				case r < 0.45:
					value := bytes.Repeat([]byte{byte(i)}, 20+rng.Intn(460))
					cost := int64(1 + rng.Intn(1000))
					for _, s := range subjects {
						s.set(key, value, cost)
					}
				case r < 0.92:
					for _, s := range subjects {
						s.get(key)
					}
				default:
					for _, s := range subjects {
						s.del(key)
					}
				}
				if i%1000 == 999 {
					for _, st := range stores {
						checkStore(t, st)
					}
				}
			}

			want := subjects[0]
			if len(want.victims) < ops/20 {
				t.Fatalf("only %d evictions in %d ops: the stream does not press the cache", len(want.victims), ops)
			}
			residents := func(s *subject) (order []string) {
				s.visit(func(n *cache.Node, _, _ uint64) bool {
					order = append(order, n.Key)
					return true
				})
				return order
			}
			for _, s := range subjects[1:] {
				if !slices.Equal(s.victims, want.victims) {
					i := 0
					for i < len(s.victims) && i < len(want.victims) && s.victims[i] == want.victims[i] {
						i++
					}
					t.Fatalf("%s evicted %d keys, %s %d; they part ways at eviction %d", s.name, len(s.victims), want.name, len(want.victims), i)
				}
				if !slices.Equal(residents(s), residents(want)) {
					t.Fatalf("%s and %s evicted alike but order their residents differently", s.name, want.name)
				}
			}
		})
	}
}

// TestServedPolicies pins the server's -policy set to camp, lru and gds: the
// rest of the core table is library-only and refused as a bad configuration.
func TestServedPolicies(t *testing.T) {
	for _, p := range core.Policies {
		_, err := New(Config{MemoryBytes: 1 << 20, Shards: 1, Policy: p.Name})
		served := p.Name == "camp" || p.Name == "lru" || p.Name == "gds"
		switch {
		case served && err != nil:
			t.Errorf("-policy %s: %v", p.Name, err)
		case !served && !errors.Is(err, errBadConfig):
			t.Errorf("-policy %s: err = %v, want errBadConfig", p.Name, err)
		}
	}
}
