package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestGDWheelBasic(t *testing.T) {
	g := NewGDWheel(100)
	if g.Get("x") {
		t.Fatal("empty cache should miss")
	}
	g.Set("x", 10, 5)
	if !g.Get("x") || !g.Contains("x") {
		t.Fatal("expected hit")
	}
	e, ok := g.Peek("x")
	if !ok || e.Size != 10 || e.Cost != 5 {
		t.Fatalf("Peek = %+v", e)
	}
	if g.Name() != "gdwheel" || g.Used() != 10 || g.Len() != 1 {
		t.Fatal("accessors broken")
	}
	if !g.Delete("x") || g.Delete("x") {
		t.Fatal("Delete semantics broken")
	}
}

// TestGDWheelCostAware: like GDS/CAMP, the wheel keeps high cost-to-size
// items over cheap ones.
func TestGDWheelCostAware(t *testing.T) {
	g := NewGDWheel(30)
	var evicted []string
	g.SetEvictFunc(func(e Entry) { evicted = append(evicted, e.Key) })
	g.Set("cheap", 10, 1)
	g.Set("dear", 10, 5000)
	g.Set("mid", 10, 100)
	g.Set("new", 10, 100)
	if len(evicted) != 1 || evicted[0] != "cheap" {
		t.Fatalf("evicted %v, want [cheap]", evicted)
	}
	if !g.Contains("dear") {
		t.Fatal("expensive item must survive")
	}
}

// TestGDWheelAging: the clock advances with evictions, so stale expensive
// items are eventually displaced (no permanent cache pollution).
func TestGDWheelAging(t *testing.T) {
	g := NewGDWheel(10)
	g.Set("gold", 1, 3000)
	for i := 0; i < 200000 && g.Contains("gold"); i++ {
		g.Set(fmt.Sprintf("c%d", i), 1, 1)
	}
	if g.Contains("gold") {
		t.Fatal("aged expensive item should eventually fall out of the wheel")
	}
}

// TestGDWheelMigration pushes priorities beyond one wheel level so outer
// slots must migrate inward.
func TestGDWheelMigration(t *testing.T) {
	g := NewGDWheel(100)
	// Offsets spanning level 0 (d < 256), level 1 (d < 65536) and level 2.
	g.Set("l0", 10, 100)      // d = 100
	g.Set("l1", 10, 5000)     // d = 5000
	g.Set("l2", 10, 10000000) // d clamps into the outer wheel
	g.Set("l1b", 10, 60000)   // d = 60000
	var evicted []string
	g.SetEvictFunc(func(e Entry) { evicted = append(evicted, e.Key) })
	// Evict everything; order should be non-decreasing in ratio.
	for g.Evict() != nil {
	}
	want := []string{"l0", "l1", "l1b", "l2"}
	if len(evicted) != len(want) {
		t.Fatalf("evicted %v", evicted)
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Fatalf("eviction order %v, want %v", evicted, want)
		}
	}
	if g.Len() != 0 || g.Used() != 0 {
		t.Fatal("wheel should be empty")
	}
}

func TestGDWheelClockMonotone(t *testing.T) {
	g := NewGDWheel(200)
	rng := rand.New(rand.NewSource(12))
	costs := []int64{1, 100, 10000}
	prev := g.Clock()
	for op := 0; op < 30000; op++ {
		key := fmt.Sprintf("k%d", rng.Intn(60))
		if rng.Intn(2) == 0 {
			g.Get(key)
		} else {
			g.Set(key, int64(rng.Intn(20)+1), costs[rng.Intn(3)])
		}
		if c := g.Clock(); c < prev {
			t.Fatalf("op %d: clock went backwards %d -> %d", op, prev, c)
		} else {
			prev = c
		}
		if g.Used() > g.Capacity() {
			t.Fatalf("op %d: over capacity", op)
		}
	}
}

// TestGDWheelTracksGDSQuality compares GD-Wheel's cost-miss ratio against
// GDS-style behavior via CAMP: they should be in the same ballpark on a
// skewed trace (the wheel is an approximation, not a different policy).
func TestGDWheelTracksGDSQuality(t *testing.T) {
	run := func(p Policy) float64 {
		rng := rand.New(rand.NewSource(33))
		costs := []int64{1, 100, 10000}
		type meta struct {
			size, cost int64
		}
		metas := map[string]meta{}
		seen := map[string]bool{}
		var missCost, totalCost int64
		for i := 0; i < 60000; i++ {
			var key string
			if rng.Float64() < 0.7 {
				key = fmt.Sprintf("h%d", rng.Intn(60))
			} else {
				key = fmt.Sprintf("c%d", rng.Intn(240))
			}
			m, ok := metas[key]
			if !ok {
				m = meta{size: int64(rng.Intn(90) + 10), cost: costs[rng.Intn(3)]}
				metas[key] = m
			}
			hit := p.Get(key)
			if !hit {
				p.Set(key, m.size, m.cost)
			}
			if seen[key] {
				totalCost += m.cost
				if !hit {
					missCost += m.cost
				}
			}
			seen[key] = true
		}
		return float64(missCost) / float64(totalCost)
	}
	wheel := run(NewGDWheel(4000))
	lru := run(NewLRU(4000))
	if wheel >= lru {
		t.Fatalf("GD-Wheel cost-miss %.4f should beat LRU %.4f", wheel, lru)
	}
}

func TestGDWheelRejectTooLarge(t *testing.T) {
	g := NewGDWheel(10)
	if g.Set("big", 11, 1) {
		t.Fatal("too-large item must be rejected")
	}
	if g.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d", g.Stats().Rejected)
	}
}
