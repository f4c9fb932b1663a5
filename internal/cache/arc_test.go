package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestARCBasic(t *testing.T) {
	a := NewARC(100)
	if a.Get("x") {
		t.Fatal("empty cache should miss")
	}
	if !a.Set("x", 10, 1) {
		t.Fatal("Set failed")
	}
	if !a.Get("x") || !a.Contains("x") {
		t.Fatal("expected hit")
	}
	e, ok := a.Peek("x")
	if !ok || e.Size != 10 {
		t.Fatalf("Peek = %+v, %v", e, ok)
	}
	if a.Name() != "arc" || a.Capacity() != 100 || a.Used() != 10 || a.Len() != 1 {
		t.Fatal("accessors broken")
	}
	if !a.Delete("x") || a.Delete("x") {
		t.Fatal("Delete semantics broken")
	}
}

// TestARCPromotesFrequent: a second access moves an item from T1 to T2, so
// a scan of new keys cannot displace it as easily.
func TestARCPromotesFrequent(t *testing.T) {
	a := NewARC(100)
	a.Set("hot", 10, 1)
	a.Get("hot") // now in T2
	// Fill with scan traffic.
	for i := 0; i < 30; i++ {
		a.Set(fmt.Sprintf("scan%d", i), 10, 1)
	}
	if !a.Contains("hot") {
		t.Fatal("frequent item should survive a one-pass scan")
	}
}

// TestARCGhostAdaptation: hits on B1 ghosts grow the recency target.
// Ghosts only form via REPLACE, which requires T2 to hold some bytes (with
// an empty B1 and T1 filling the cache, Case IV discards T1's LRU outright).
func TestARCGhostAdaptation(t *testing.T) {
	a := NewARC(60)
	a.Set("f1", 10, 1)
	a.Get("f1") // promote to T2 so T1 can no longer fill the cache
	for i := 0; i < 8; i++ {
		a.Set(fmt.Sprintf("k%d", i), 10, 1)
	}
	// k2 is the most recent REPLACE victim and thus the surviving B1
	// ghost (older ghosts were trimmed as |T1|+|B1| reached capacity).
	if a.Contains("k2") {
		t.Fatal("k2 should have been evicted")
	}
	p0 := a.Target()
	a.Set("k2", 10, 1) // B1 ghost hit
	if a.Target() <= p0 {
		t.Fatalf("B1 ghost hit should raise the target: %d -> %d", p0, a.Target())
	}
}

func TestARCRejectTooLarge(t *testing.T) {
	a := NewARC(50)
	if a.Set("big", 60, 1) {
		t.Fatal("too-large item must be rejected")
	}
	if a.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d", a.Stats().Rejected)
	}
}

func TestARCEvictOne(t *testing.T) {
	a := NewARC(30)
	a.Set("a", 10, 1)
	a.Set("b", 10, 1)
	n := a.Evict()
	if n == nil || n.Key == "" {
		t.Fatal("Evict should return a victim")
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d after Evict", a.Len())
	}
	a.Evict()
	if a.Evict() != nil {
		t.Fatal("Evict on empty cache should fail")
	}
}

// TestARCAccounting fuzzes ARC and checks byte accounting and capacity.
func TestARCAccounting(t *testing.T) {
	a := NewARC(500)
	rng := rand.New(rand.NewSource(21))
	for op := 0; op < 40000; op++ {
		key := fmt.Sprintf("k%d", rng.Intn(80))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			a.Get(key)
		case 6, 7, 8:
			a.Set(key, int64(rng.Intn(60)+1), int64(rng.Intn(100)))
		default:
			a.Delete(key)
		}
		if a.Used() > a.Capacity() {
			t.Fatalf("op %d: over capacity: %d > %d", op, a.Used(), a.Capacity())
		}
		// Spot-check the byte accounting against residents.
		if op%1000 == 0 {
			var total int64
			count := 0
			for i := 0; i < 80; i++ {
				if e, ok := a.Peek(fmt.Sprintf("k%d", i)); ok {
					total += e.Size
					count++
				}
			}
			if total != a.Used() || count != a.Len() {
				t.Fatalf("op %d: accounting drift: used %d vs %d, len %d vs %d",
					op, a.Used(), total, a.Len(), count)
			}
		}
	}
}

// TestARCBeatsLRUOnScans: the classic ARC win — a hot set established in
// the frequency list survives long one-pass scans that wipe out LRU.
func TestARCBeatsLRUOnScans(t *testing.T) {
	const capacity = 100 * 10
	hitRate := func(p Policy) float64 {
		// Establish the hot set with two passes (ARC promotes the
		// second access into T2).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("hot%d", i)
				if !p.Get(key) {
					p.Set(key, 10, 1)
				}
			}
		}
		var hits, total int
		scan := 0
		for round := 0; round < 30; round++ {
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("hot%d", i)
				total++
				if p.Get(key) {
					hits++
				} else {
					p.Set(key, 10, 1)
				}
			}
			// A one-pass scan of 200 unique keys (2x capacity).
			for i := 0; i < 200; i++ {
				scan++
				key := fmt.Sprintf("scan%d", scan)
				total++
				if p.Get(key) {
					hits++
				} else {
					p.Set(key, 10, 1)
				}
			}
		}
		return float64(hits) / float64(total)
	}
	arc := hitRate(NewARC(capacity))
	lru := hitRate(NewLRU(capacity))
	if arc <= lru {
		t.Fatalf("ARC hit rate %.3f should beat LRU %.3f on scan-heavy mix", arc, lru)
	}
}
