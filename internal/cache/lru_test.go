package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := NewLRU(100)
	if c.Get("a") {
		t.Fatal("empty cache should miss")
	}
	if !c.Set("a", 10, 1) {
		t.Fatal("Set should succeed")
	}
	if !c.Get("a") {
		t.Fatal("expected hit after Set")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Sets != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 set", s)
	}
	if c.Len() != 1 || c.Used() != 10 || c.Capacity() != 100 {
		t.Fatalf("Len=%d Used=%d Cap=%d", c.Len(), c.Used(), c.Capacity())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(30)
	c.Set("a", 10, 1)
	c.Set("b", 10, 1)
	c.Set("c", 10, 1)
	c.Get("a") // a is now most recent; b is LRU
	var evicted []string
	c.SetEvictFunc(func(e Entry) { evicted = append(evicted, e.Key) })
	c.Set("d", 15, 1) // needs 15 bytes -> evicts b then c
	if len(evicted) != 2 || evicted[0] != "b" || evicted[1] != "c" {
		t.Fatalf("evicted %v, want [b c]", evicted)
	}
	if !c.Contains("a") || !c.Contains("d") {
		t.Fatal("a and d should be resident")
	}
	if c.Used() != 25 {
		t.Fatalf("Used = %d, want 25", c.Used())
	}
}

func TestLRUIgnoresCost(t *testing.T) {
	c := NewLRU(20)
	c.Set("cheap", 10, 1)
	c.Set("gold", 10, 1000000)
	c.Get("cheap") // gold becomes LRU despite its cost
	c.Set("x", 10, 1)
	if c.Contains("gold") {
		t.Fatal("LRU must ignore cost and evict the least recently used")
	}
	if !c.Contains("cheap") {
		t.Fatal("cheap was recently used and should stay")
	}
}

func TestLRURejectTooLarge(t *testing.T) {
	c := NewLRU(10)
	if c.Set("big", 11, 1) {
		t.Fatal("item larger than capacity must be rejected")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", c.Stats().Rejected)
	}
	if c.Len() != 0 {
		t.Fatal("rejected item must not be resident")
	}
	// Exactly capacity fits.
	if !c.Set("fit", 10, 1) {
		t.Fatal("item of exactly capacity must fit")
	}
}

func TestLRUUpdateSizeAndCost(t *testing.T) {
	c := NewLRU(100)
	c.Set("a", 10, 1)
	if !c.Set("a", 40, 7) {
		t.Fatal("grow update should succeed")
	}
	e, ok := c.Peek("a")
	if !ok || e.Size != 40 || e.Cost != 7 {
		t.Fatalf("Peek = %+v, want size 40 cost 7", e)
	}
	if c.Used() != 40 {
		t.Fatalf("Used = %d, want 40", c.Used())
	}
	if !c.Set("a", 5, 7) {
		t.Fatal("shrink update should succeed")
	}
	if c.Used() != 5 {
		t.Fatalf("Used = %d, want 5", c.Used())
	}
	if c.Stats().Updates != 2 {
		t.Fatalf("Updates = %d, want 2", c.Stats().Updates)
	}
}

func TestLRUUpdateEvictsOthersNotSelf(t *testing.T) {
	c := NewLRU(30)
	c.Set("a", 10, 1)
	c.Set("b", 10, 1)
	c.Set("c", 10, 1)
	// Growing a to 20 requires evicting others (a itself is skipped even
	// though it is least recently used).
	if !c.Set("a", 20, 1) {
		t.Fatal("grow should succeed by evicting b")
	}
	if !c.Contains("a") {
		t.Fatal("a must survive its own grow")
	}
	if c.Contains("b") {
		t.Fatal("b should have been evicted to make room")
	}
	if c.Used() != 30 {
		t.Fatalf("Used = %d, want 30", c.Used())
	}
}

func TestLRUUpdateTooLargeDropsEntry(t *testing.T) {
	c := NewLRU(30)
	c.Set("a", 10, 1)
	if c.Set("a", 31, 1) {
		t.Fatal("grow beyond capacity must fail")
	}
	if c.Contains("a") {
		t.Fatal("entry must not remain with a stale size")
	}
	if c.Used() != 0 {
		t.Fatalf("Used = %d, want 0", c.Used())
	}
}

func TestLRUDelete(t *testing.T) {
	c := NewLRU(100)
	c.Set("a", 10, 1)
	var evicted int
	c.SetEvictFunc(func(Entry) { evicted++ })
	if !c.Delete("a") {
		t.Fatal("Delete of resident key should return true")
	}
	if c.Delete("a") {
		t.Fatal("Delete of absent key should return false")
	}
	if evicted != 0 {
		t.Fatal("Delete must not fire the eviction callback")
	}
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatalf("Len=%d Used=%d after delete", c.Len(), c.Used())
	}
}

// lruKeys returns resident keys from least to most recently used.
func lruKeys(c *LRU) []string {
	var out []string
	c.Visit(func(n *Node, _, _ uint64) bool {
		out = append(out, c.Key(n))
		return true
	})
	return out
}

func TestLRUVictimAndKeys(t *testing.T) {
	c := NewLRU(100)
	if n, _ := c.Victim(); n != nil {
		t.Fatal("empty cache has no victim")
	}
	c.Set("a", 1, 1)
	c.Set("b", 1, 1)
	c.Get("a")
	if n, urg := c.Victim(); c.Key(n) != "b" || urg != 0 {
		t.Fatalf("victim = %q urgency %v, want b 0", c.Key(n), urg)
	}
	keys := lruKeys(c)
	if len(keys) != 2 || keys[0] != "b" || keys[1] != "a" {
		t.Fatalf("Keys = %v, want [b a]", keys)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU(0)
	if c.Set("a", 1, 1) {
		t.Fatal("nothing fits in a zero-capacity cache")
	}
	if c.Set("z", 0, 1) != true {
		t.Fatal("zero-sized item fits anywhere")
	}
	neg := NewLRU(-5)
	if neg.Capacity() != 0 {
		t.Fatalf("negative capacity should clamp to 0, got %d", neg.Capacity())
	}
}

// lruModel is an O(n) reference implementation used to cross-check LRU.
type lruModel struct {
	capacity int64
	used     int64
	order    []string // least to most recently used
	entries  map[string]Entry
}

func newLRUModel(capacity int64) *lruModel {
	return &lruModel{capacity: capacity, entries: make(map[string]Entry)}
}

func (m *lruModel) touch(key string) {
	for i, k := range m.order {
		if k == key {
			m.order = append(append(m.order[:i], m.order[i+1:]...), key)
			return
		}
	}
}

func (m *lruModel) get(key string) bool {
	if _, ok := m.entries[key]; !ok {
		return false
	}
	m.touch(key)
	return true
}

func (m *lruModel) set(key string, size, cost int64) bool {
	if old, ok := m.entries[key]; ok {
		delta := size - old.Size
		if delta > 0 {
			if !m.makeRoom(delta, key) {
				m.remove(key)
				return false
			}
		}
		m.used += delta
		m.entries[key] = Entry{Key: key, Size: size, Cost: cost}
		m.touch(key)
		return true
	}
	if size > m.capacity || !m.makeRoom(size, "") {
		return false
	}
	m.entries[key] = Entry{Key: key, Size: size, Cost: cost}
	m.order = append(m.order, key)
	m.used += size
	return true
}

func (m *lruModel) makeRoom(need int64, skip string) bool {
	for m.used+need > m.capacity {
		victim := ""
		for _, k := range m.order {
			if k != skip {
				victim = k
				break
			}
		}
		if victim == "" {
			return false
		}
		m.remove(victim)
	}
	return true
}

func (m *lruModel) remove(key string) {
	e, ok := m.entries[key]
	if !ok {
		return
	}
	m.used -= e.Size
	delete(m.entries, key)
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// TestLRUMatchesModel runs a random workload against both the real LRU and
// the reference model and requires identical observable behavior.
func TestLRUMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	c := NewLRU(500)
	m := newLRUModel(500)
	for op := 0; op < 50000; op++ {
		key := fmt.Sprintf("k%d", rng.Intn(60))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			if got, want := c.Get(key), m.get(key); got != want {
				t.Fatalf("op %d: Get(%s) = %v, model %v", op, key, got, want)
			}
		case 5, 6, 7, 8:
			size := int64(rng.Intn(120) + 1)
			cost := int64(rng.Intn(100))
			if got, want := c.Set(key, size, cost), m.set(key, size, cost); got != want {
				t.Fatalf("op %d: Set(%s,%d) = %v, model %v", op, key, size, got, want)
			}
		default:
			cHas := c.Delete(key)
			_, mHas := m.entries[key]
			m.remove(key)
			if cHas != mHas {
				t.Fatalf("op %d: Delete(%s) = %v, model %v", op, key, cHas, mHas)
			}
		}
		if c.Used() != m.used {
			t.Fatalf("op %d: Used = %d, model %d", op, c.Used(), m.used)
		}
		if c.Len() != len(m.entries) {
			t.Fatalf("op %d: Len = %d, model %d", op, c.Len(), len(m.entries))
		}
	}
	// Final order check.
	keys := lruKeys(c)
	if len(keys) != len(m.order) {
		t.Fatalf("order length %d, model %d", len(keys), len(m.order))
	}
	for i := range keys {
		if keys[i] != m.order[i] {
			t.Fatalf("order[%d] = %s, model %s", i, keys[i], m.order[i])
		}
	}
}
