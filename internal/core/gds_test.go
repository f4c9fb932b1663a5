package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camp/internal/cache"
)

func TestGDSBasicHitMiss(t *testing.T) {
	g := NewGDS(100)
	if g.Get("a") {
		t.Fatal("empty cache should miss")
	}
	if !g.Set("a", 10, 5) {
		t.Fatal("Set should succeed")
	}
	if !g.Get("a") {
		t.Fatal("expected hit")
	}
	if g.Name() != "gds" {
		t.Fatalf("Name = %s", g.Name())
	}
	s := g.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Sets != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGDSHFormula checks H(p) = L + cost/size and the eviction rule of
// Algorithm 1 on a hand-computed scenario.
func TestGDSHFormula(t *testing.T) {
	g := NewGDS(20)
	var evicted []string
	g.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	g.Set("a", 10, 10) // H = 0 + 1
	g.Set("b", 10, 50) // H = 0 + 5
	if g.L() != 0 {
		t.Fatalf("L = %v, want 0 before any eviction", g.L())
	}
	g.Set("c", 10, 100) // evicts a (H=1); L rises to min remaining = 5; H(c)=15
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	if g.L() != 5 {
		t.Fatalf("L = %v, want 5 (minimum of the remaining items)", g.L())
	}
	g.Set("d", 10, 10) // evicts b (H=5); L -> 15; H(d) = 16
	if len(evicted) != 2 || evicted[1] != "b" {
		t.Fatalf("evicted %v, want [a b]", evicted)
	}
	if g.L() != 15 {
		t.Fatalf("L = %v, want 15", g.L())
	}
	// d (H=16) is now the minimum, not c (H=15)? No: c has H=15 < 16, so
	// the next eviction takes c even though d is older.
	g.Set("e", 10, 1000)
	if len(evicted) != 3 || evicted[2] != "c" {
		t.Fatalf("evicted %v, want [a b c]", evicted)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGDSHitDelaysEviction verifies the core Greedy-Dual property: a hit
// re-inflates the item's priority to L + ratio, postponing its eviction.
func TestGDSHitDelaysEviction(t *testing.T) {
	g := NewGDS(20)
	g.Set("a", 10, 10)
	g.Set("b", 10, 10)
	g.Get("a") // both same ratio; a now strictly fresher
	var evicted []string
	g.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	g.Set("c", 10, 10)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
}

func TestGDSLMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGDS(500)
	prev := g.L()
	for op := 0; op < 20000; op++ {
		key := fmt.Sprintf("k%d", rng.Intn(60))
		if rng.Intn(2) == 0 {
			g.Get(key)
		} else {
			g.Set(key, int64(rng.Intn(50)+1), int64(rng.Intn(10000)))
		}
		if l := g.L(); l < prev {
			t.Fatalf("op %d: L decreased from %v to %v", op, prev, l)
		} else {
			prev = l
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGDSDeleteUpdateReject(t *testing.T) {
	g := NewGDS(30)
	g.Set("a", 10, 1)
	if !g.Delete("a") || g.Delete("a") {
		t.Fatal("Delete semantics broken")
	}
	g.Set("b", 10, 1)
	if !g.Set("b", 20, 5) {
		t.Fatal("update should succeed")
	}
	e, _ := g.Peek("b")
	if e.Size != 20 || e.Cost != 5 {
		t.Fatalf("Peek = %+v", e)
	}
	if g.Stats().Updates != 1 {
		t.Fatalf("Updates = %d", g.Stats().Updates)
	}
	if g.Set("huge", 31, 1) {
		t.Fatal("too-large item must be rejected")
	}
	if g.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d", g.Stats().Rejected)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// gdsModel is an O(n) reference implementation of Algorithm 1.
type gdsModel struct {
	capacity, used int64
	l              float64
	seq            uint64
	items          map[string]*gdsModelItem
	evicted        []string
}

type gdsModelItem struct {
	key        string
	size, cost int64
	h          float64
	seq        uint64
}

func newGDSModel(capacity int64) *gdsModel {
	return &gdsModel{capacity: capacity, items: make(map[string]*gdsModelItem)}
}

func (m *gdsModel) min(skip string) *gdsModelItem {
	var best *gdsModelItem
	for k, it := range m.items {
		if k == skip {
			continue
		}
		if best == nil || it.h < best.h || (it.h == best.h && it.seq < best.seq) {
			best = it
		}
	}
	return best
}

func (m *gdsModel) get(key string) bool {
	it, ok := m.items[key]
	if !ok {
		return false
	}
	if min := m.min(key); min != nil && min.h > m.l {
		m.l = min.h
	}
	it.h = m.l + ratio(it.cost, it.size)
	m.seq++
	it.seq = m.seq
	return true
}

func (m *gdsModel) set(key string, size, cost int64) bool {
	if size < 0 {
		size = 0
	}
	if old, ok := m.items[key]; ok {
		m.used -= old.size
		delete(m.items, key)
	}
	if size > m.capacity {
		return false
	}
	for m.used+size > m.capacity {
		victim := m.min("")
		if victim == nil {
			return false
		}
		delete(m.items, victim.key)
		m.used -= victim.size
		m.evicted = append(m.evicted, victim.key)
		if min := m.min(""); min != nil && min.h > m.l {
			m.l = min.h
		}
	}
	m.seq++
	m.items[key] = &gdsModelItem{key: key, size: size, cost: cost, h: m.l + ratio(cost, size), seq: m.seq}
	m.used += size
	return true
}

// TestGDSMatchesModel cross-validates GDS against the naive model.
func TestGDSMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := NewGDS(400)
	m := newGDSModel(400)
	var evicted []string
	g.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	costs := []int64{0, 1, 100, 10000}
	for op := 0; op < 30000; op++ {
		key := fmt.Sprintf("k%d", rng.Intn(50))
		if rng.Intn(2) == 0 {
			if got, want := g.Get(key), m.get(key); got != want {
				t.Fatalf("op %d: Get(%s) = %v, model %v", op, key, got, want)
			}
		} else {
			size := int64(rng.Intn(80) + 1)
			cost := costs[rng.Intn(len(costs))]
			if got, want := g.Set(key, size, cost), m.set(key, size, cost); got != want {
				t.Fatalf("op %d: Set(%s) = %v, model %v", op, key, got, want)
			}
		}
		if g.Used() != m.used || g.Len() != len(m.items) {
			t.Fatalf("op %d: Used/Len = %d/%d, model %d/%d", op, g.Used(), g.Len(), m.used, len(m.items))
		}
		if g.L() != m.l {
			t.Fatalf("op %d: L = %v, model %v", op, g.L(), m.l)
		}
		if op%101 == 0 {
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if len(evicted) != len(m.evicted) {
		t.Fatalf("%d evictions, model %d", len(evicted), len(m.evicted))
	}
	for i := range evicted {
		if evicted[i] != m.evicted[i] {
			t.Fatalf("eviction %d: %s, model %s", i, evicted[i], m.evicted[i])
		}
	}
}

// TestFig4VisitTrends reproduces the Figure 4 trends at unit-test scale on a
// skewed workload: with the textbook delete path (the paper's regime),
// GDS's per-operation heap visits grow with cache size while CAMP's shrink,
// and CAMP visits a small fraction of GDS's nodes in either mode.
func TestFig4VisitTrends(t *testing.T) {
	perOp := func(capacity int64, textbook bool) (gdsVisits, campVisits float64) {
		rng := rand.New(rand.NewSource(9))
		var g *GDS
		if textbook {
			g = NewGDS(capacity, WithTextbookDelete())
		} else {
			g = NewGDS(capacity)
		}
		c := NewCamp(capacity)
		costs := []int64{1, 100, 10000}
		const ops = 30000
		for op := 0; op < ops; op++ {
			var key string
			if rng.Float64() < 0.7 {
				key = fmt.Sprintf("hot%d", rng.Intn(1000))
			} else {
				key = fmt.Sprintf("cold%d", rng.Intn(4000))
			}
			cost := costs[rng.Intn(3)]
			if !g.Get(key) {
				g.Set(key, 10, cost)
			}
			if !c.Get(key) {
				c.Set(key, 10, cost)
			}
		}
		return float64(g.HeapVisits()) / ops, float64(c.HeapVisits()) / ops
	}
	gSmall, cSmall := perOp(2000, true)
	gLarge, cLarge := perOp(40000, true)
	if gLarge <= gSmall {
		t.Errorf("textbook GDS visits/op should grow with cache size: small=%.2f large=%.2f", gSmall, gLarge)
	}
	if cLarge >= cSmall {
		t.Errorf("CAMP visits/op should shrink with cache size: small=%.2f large=%.2f", cSmall, cLarge)
	}
	if cSmall*4 >= gSmall || cLarge*4 >= gLarge {
		t.Errorf("CAMP should visit a small fraction of GDS's nodes: camp=%.2f/%.2f gds=%.2f/%.2f",
			cSmall, cLarge, gSmall, gLarge)
	}
	// The optimized replace-with-last delete still leaves CAMP far ahead.
	gOpt, cOpt := perOp(20000, false)
	if cOpt*4 >= gOpt {
		t.Errorf("CAMP (%.2f) should beat even optimized GDS (%.2f)", cOpt, gOpt)
	}
}

// TestGDSCheckInvariantsBranches feeds the checker one corrupt structure per
// failure branch and expects that branch's error.
func TestGDSCheckInvariantsBranches(t *testing.T) {
	if err := gdsFixture().CheckInvariants(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	for _, tc := range gdsCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			g := gdsFixture()
			tc.corrupt(g)
			if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
