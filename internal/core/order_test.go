package core

import (
	"fmt"
	"math/rand"
	"testing"

	"camp/internal/cache"
)

// evictionOrdered pairs the keyed face with the ordering's visitor and
// mutating drain for the test.
type evictionOrdered = cache.KeyedOrdering

// TestVisitEvictionOrderMatchesDrain drives each policy through a random
// mixed workload (with evictions, so L moves), then checks that
// Visit predicts exactly the sequence Evict produces — and
// that visiting mutated nothing.
func TestVisitEvictionOrderMatchesDrain(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() evictionOrdered
	}{
		{name: "camp", mk: func() evictionOrdered { return NewCamp(4096) }},
		{name: "camp-inf", mk: func() evictionOrdered { return NewCamp(4096, WithPrecision(PrecisionInf)) }},
		{name: "gds", mk: func() evictionOrdered { return NewGDS(4096) }},
		{name: "lru", mk: func() evictionOrdered { return cache.NewLRU(4096) }},
		{name: "arc", mk: func() evictionOrdered { return cache.NewARC(4096) }},
		{name: "2q", mk: func() evictionOrdered { return cache.NewTwoQ(4096) }},
		{name: "lfu", mk: func() evictionOrdered { return cache.NewLFU(4096) }},
		{name: "pooled-lru", mk: func() evictionOrdered {
			p, err := cache.NewPooledByRanges(4096, []int64{1, 100, 500})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(300))
				if rng.Intn(3) == 0 {
					p.Get(key)
				} else {
					p.Set(key, int64(20+rng.Intn(60)), int64(1+rng.Intn(1000)))
				}
			}
			if p.Len() == 0 {
				t.Fatal("degenerate workload: nothing resident")
			}
			var predicted []string
			p.Visit(func(n *cache.Node, _, _ uint64) bool {
				predicted = append(predicted, p.Key(n))
				return true
			})
			if len(predicted) != p.Len() {
				t.Fatalf("visited %d entries, %d resident", len(predicted), p.Len())
			}
			for i := 0; ; i++ {
				victim := p.Evict()
				if victim == nil {
					if i != len(predicted) {
						t.Fatalf("drained %d entries, predicted %d", i, len(predicted))
					}
					break
				}
				if p.Key(victim) != predicted[i] {
					t.Fatalf("eviction %d: drained %q, predicted %q", i, p.Key(victim), predicted[i])
				}
			}
		})
	}
}

// TestVisitEvictionOrderEarlyStop checks the visitor honors a false return.
func TestVisitEvictionOrderEarlyStop(t *testing.T) {
	p := NewCamp(4096)
	for i := 0; i < 20; i++ {
		p.Set(fmt.Sprintf("k%d", i), 10, int64(i+1))
	}
	n := 0
	p.Visit(func(*cache.Node, uint64, uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("visited %d entries after early stop, want 5", n)
	}
}

// priorityOrdered pairs the priority exporter/importer with the drain.
type priorityOrdered = evictionOrdered

// drainKeys empties p via Evict, returning the victim sequence.
func drainKeys(p cache.KeyedOrdering) []string {
	var keys []string
	for victim := p.Evict(); victim != nil; victim = p.Evict() {
		keys = append(keys, p.Key(victim))
	}
	return keys
}

// churn drives p through a random mixed workload sized to force evictions,
// so the global offset L rises and entries end up with non-uniform priority
// offsets — the state order-only snapshots cannot reproduce.
func churn(p cache.Policy, rng *rand.Rand, ops int) {
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(300))
		if rng.Intn(3) == 0 {
			p.Get(key)
		} else {
			p.Set(key, int64(20+rng.Intn(60)), int64(1+rng.Intn(1000)))
		}
	}
}

// TestPriorityRoundTripExact is the policy-level mid-churn fidelity
// property: after an evict-heavy workload, exporting every entry's priority
// offset and replaying it (in visitation order) into a fresh policy must
// reproduce the exact cross-queue eviction schedule — the contract snapshot
// format v2 is built on. Checked over many random seeds, against live
// invariants, and for CAMP also after further identical churn on both
// copies (offsets are exact integers there, so the clone must track the
// original forever, not just at restore time).
func TestPriorityRoundTripExact(t *testing.T) {
	type maker struct {
		name string
		mk   func() priorityOrdered
	}
	makers := []maker{
		{name: "camp", mk: func() priorityOrdered { return NewCamp(4096) }},
		{name: "camp-p1", mk: func() priorityOrdered { return NewCamp(4096, WithPrecision(1)) }},
		{name: "camp-inf", mk: func() priorityOrdered { return NewCamp(4096, WithPrecision(PrecisionInf)) }},
		{name: "camp-classicL", mk: func() priorityOrdered { return NewCamp(4096, WithClassicLUpdate()) }},
		{name: "gds", mk: func() priorityOrdered { return NewGDS(4096) }},
		{name: "lru", mk: func() priorityOrdered { return cache.NewLRU(4096) }},
	}
	for _, tc := range makers {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				live := tc.mk()
				rng := rand.New(rand.NewSource(seed))
				churn(live, rng, 3000)
				if live.Stats().Evictions == 0 {
					t.Fatalf("seed %d: no evictions — the mid-churn property is vacuous", seed)
				}

				// Export scale + order + offsets — exactly what a v2
				// snapshot records — and restore into a fresh policy.
				restored := tc.mk()
				if scale, ok := live.Scale(); ok {
					restored.RestoreScale(scale)
				}
				n := 0
				live.Visit(func(e *cache.Node, prio, class uint64) bool {
					n++
					if !restored.SetWithPriority(live.Key(e), e.Size, e.Cost, prio, class) {
						t.Fatalf("seed %d: restore rejected %q", seed, live.Key(e))
					}
					return true
				})
				if n != live.Len() || restored.Len() != n {
					t.Fatalf("seed %d: visited %d, live %d, restored %d", seed, n, live.Len(), restored.Len())
				}
				if c, ok := restored.(*Camp); ok {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("seed %d: restored CAMP invariants: %v", seed, err)
					}
				}
				if g, ok := restored.(*GDS); ok {
					if err := g.CheckInvariants(); err != nil {
						t.Fatalf("seed %d: restored GDS invariants: %v", seed, err)
					}
				}

				// CAMP offsets are exact integers: the clone must keep
				// tracking the original through further identical churn
				// (same sets, gets and evictions on both), not just match
				// at restore time. GDS offsets are floats, exact at
				// restore; skip the evolution half there.
				if _, isCamp := live.(*Camp); isCamp {
					rng2 := rand.New(rand.NewSource(seed + 1000))
					for i := 0; i < 500; i++ {
						key := fmt.Sprintf("k%03d", rng2.Intn(300))
						if rng2.Intn(3) == 0 {
							a, b := live.Get(key), restored.Get(key)
							if a != b {
								t.Fatalf("seed %d: post-restore get(%q) diverged: live %v, restored %v", seed, key, a, b)
							}
						} else {
							size, cost := int64(20+rng2.Intn(60)), int64(1+rng2.Intn(1000))
							a, b := live.Set(key, size, cost), restored.Set(key, size, cost)
							if a != b {
								t.Fatalf("seed %d: post-restore set(%q) diverged: live %v, restored %v", seed, key, a, b)
							}
						}
					}
				}

				want := drainKeys(live)
				got := drainKeys(restored)
				if len(want) != len(got) {
					t.Fatalf("seed %d: drained %d, want %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: eviction %d diverged: restored %q, live %q", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSetWithPriorityClampsCorruptOffsets pins the defensive half of the
// import contract: offsets a well-formed snapshot cannot contain (beyond
// the entry's rounded ratio; NaN or negative bits for GDS) are clamped into
// the policy's invariant bounds instead of trusted.
func TestSetWithPriorityClampsCorruptOffsets(t *testing.T) {
	c := NewCamp(4096)
	if !c.SetWithPriority("huge", 40, 40, ^uint64(0), 33) {
		t.Fatal("clamped insert rejected")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("CAMP invariants after corrupt offset: %v", err)
	}
	g := NewGDS(4096)
	for _, bits := range []uint64{
		0x7ff8000000000000, // NaN
		0xfff0000000000000, // -Inf
		0x7ff0000000000000, // +Inf
		^uint64(0),         // NaN payload
	} {
		if !g.SetWithPriority(fmt.Sprintf("k%x", bits), 40, 40, bits, 0) {
			t.Fatal("clamped insert rejected")
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("GDS invariants after corrupt offsets: %v", err)
	}
}

// TestSetWithPriorityOutOfOrder pins the sorted-insert path: replaying a
// priority export in a scrambled order must still leave CAMP's queues in
// priority order (the link scans for the right slot instead of assuming
// tail append), so the drain matches the export even for adversarial
// callers.
func TestSetWithPriorityOutOfOrder(t *testing.T) {
	live := NewCamp(4096)
	rng := rand.New(rand.NewSource(42))
	churn(live, rng, 3000)
	type exported struct {
		e           cache.Entry
		prio, class uint64
	}
	var exp []exported
	live.Visit(func(n *cache.Node, prio, class uint64) bool {
		exp = append(exp, exported{cache.Entry{Key: live.Key(n), Size: n.Size, Cost: n.Cost}, prio, class})
		return true
	})
	restored := NewCamp(4096)
	for _, i := range rng.Perm(len(exp)) {
		x := exp[i]
		if !restored.SetWithPriority(x.e.Key, x.e.Size, x.e.Cost, x.prio, x.class) {
			t.Fatalf("out-of-order restore rejected %q", x.e.Key)
		}
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("invariants after out-of-order restore: %v", err)
	}
	// Order within equal (H) ties follows insertion order, which the
	// shuffle changed — but the priority partial order must hold exactly:
	// drained H values must be non-decreasing and match the export's
	// multiset of offsets.
	wantH := make(map[uint64]int)
	for _, x := range exp {
		wantH[x.prio]++
	}
	prev := uint64(0)
	for {
		q, ok := restored.heap.Peek()
		if !ok {
			break
		}
		h := q.head().H
		if h < prev {
			t.Fatalf("drain H went backwards: %d after %d", h, prev)
		}
		prev = h
		restored.Evict()
		wantH[h]--
	}
	for h, n := range wantH {
		if n != 0 {
			t.Fatalf("offset %d: %d entries unaccounted after drain", h, n)
		}
	}
}
