package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTwoQBasic(t *testing.T) {
	q := NewTwoQ(100)
	if q.Get("x") {
		t.Fatal("empty cache should miss")
	}
	if !q.Set("x", 10, 1) {
		t.Fatal("Set failed")
	}
	if !q.Get("x") || !q.Contains("x") {
		t.Fatal("expected hit")
	}
	if q.Name() != "2q" || q.Used() != 10 || q.Len() != 1 {
		t.Fatal("accessors broken")
	}
	if !q.Delete("x") || q.Delete("x") {
		t.Fatal("Delete semantics broken")
	}
}

// TestTwoQGhostPromotion: an item evicted from probation and re-requested
// is promoted to the protected main queue.
func TestTwoQGhostPromotion(t *testing.T) {
	q := NewTwoQ(100) // kin=25, kout=50
	q.Set("victim", 10, 1)
	// Push victim out of A1in with more probation traffic.
	for i := 0; i < 12; i++ {
		q.Set(fmt.Sprintf("fill%d", i), 10, 1)
	}
	if q.Contains("victim") {
		t.Fatal("victim should have left probation")
	}
	// Re-insert: this is a ghost hit, landing in Am.
	q.Set("victim", 10, 1)
	if !q.Contains("victim") {
		t.Fatal("ghost promotion failed")
	}
	// Am members survive probation churn.
	for i := 0; i < 12; i++ {
		q.Set(fmt.Sprintf("fill2-%d", i), 10, 1)
	}
	if !q.Contains("victim") {
		t.Fatal("protected item should survive probation churn")
	}
}

// TestTwoQScanResistance: one-pass scans never enter the main queue, so a
// hot set in Am survives them. Am membership requires a ghost promotion:
// insert, get demoted under pressure, then be re-requested.
func TestTwoQScanResistance(t *testing.T) {
	q := NewTwoQ(400) // kin=100, kout=200
	for _, k := range []string{"h1", "h2", "h3"} {
		q.Set(k, 10, 1)
	}
	// Enough probation pressure to demote h1..h3 into the ghost queue.
	for i := 0; i < 40; i++ {
		q.Set(fmt.Sprintf("x%d", i), 10, 1)
	}
	for _, k := range []string{"h1", "h2", "h3"} {
		if q.Contains(k) {
			t.Fatalf("%s should have been demoted to the ghost queue", k)
		}
		q.Set(k, 10, 1) // ghost hit -> Am
		if !q.Contains(k) {
			t.Fatalf("%s should have been promoted", k)
		}
	}
	// A long one-pass scan churns only the probation queue.
	for i := 0; i < 200; i++ {
		q.Set(fmt.Sprintf("scan%d", i), 10, 1)
	}
	for _, k := range []string{"h1", "h2", "h3"} {
		if !q.Contains(k) {
			t.Fatalf("hot key %s lost to a scan", k)
		}
	}
}

func TestTwoQRejectAndUpdate(t *testing.T) {
	q := NewTwoQ(50)
	if q.Set("big", 60, 1) {
		t.Fatal("too-large item must be rejected")
	}
	q.Set("a", 10, 1)
	if !q.Set("a", 20, 2) {
		t.Fatal("update failed")
	}
	e, _ := q.Peek("a")
	if e.Size != 20 || e.Cost != 2 {
		t.Fatalf("Peek = %+v", e)
	}
	if q.Stats().Updates != 1 {
		t.Fatalf("Updates = %d", q.Stats().Updates)
	}
}

func TestTwoQEvictOne(t *testing.T) {
	q := NewTwoQ(30)
	q.Set("a", 10, 1)
	if q.Evict() == nil {
		t.Fatal("Evict should evict")
	}
	if q.Len() != 0 {
		t.Fatal("cache should be empty")
	}
	if q.Evict() != nil {
		t.Fatal("Evict on empty cache should fail")
	}
}

func TestTwoQAccounting(t *testing.T) {
	q := NewTwoQ(500)
	rng := rand.New(rand.NewSource(5))
	var evictedBytes uint64
	q.SetEvictFunc(func(e Entry) { evictedBytes += uint64(e.Size) })
	for op := 0; op < 40000; op++ {
		key := fmt.Sprintf("k%d", rng.Intn(80))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			q.Get(key)
		case 6, 7, 8:
			q.Set(key, int64(rng.Intn(60)+1), int64(rng.Intn(100)))
		default:
			q.Delete(key)
		}
		if q.Used() > q.Capacity() {
			t.Fatalf("op %d: over capacity", op)
		}
	}
	if q.Stats().EvictedBytes != evictedBytes {
		t.Fatalf("callback saw %d evicted bytes, stats %d", evictedBytes, q.Stats().EvictedBytes)
	}
}
