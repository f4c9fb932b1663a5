package camp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"camp/internal/cache"
)

func TestCacheSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.camp")
	c1, err := New(1<<20, WithSnapshotFile(path), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if !c1.Set(key, []byte(fmt.Sprintf("value-%03d", i)), int64(100+i)) {
			t.Fatalf("set %s rejected", key)
		}
	}
	n, err := c1.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("snapshot wrote %d entries, want 100", n)
	}

	// A fresh cache warm-starts from the file, costs intact.
	c2, err := New(1<<20, WithSnapshotFile(path), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 100 {
		t.Fatalf("warm start restored %d entries, want 100", c2.Len())
	}
	v, ok := c2.Get("key-042")
	if !ok || string(v) != "value-042" {
		t.Fatalf("key-042 after warm start: %q, %v", v, ok)
	}
	e, ok := c2.Peek("key-042")
	if !ok || e.Cost != 142 {
		t.Fatalf("key-042 cost after warm start: %+v, want cost 142", e)
	}
}

func TestCacheSnapshotMissingFileIsColdStart(t *testing.T) {
	c, err := New(1<<20, WithSnapshotFile(filepath.Join(t.TempDir(), "nope.camp")))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("cold start has %d entries", c.Len())
	}
}

func TestCacheSnapshotRefusesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.camp")
	c1, err := New(1<<20, WithSnapshotFile(path))
	if err != nil {
		t.Fatal(err)
	}
	c1.Set("a", []byte("alpha"), 5)
	if _, err := c1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(1<<20, WithSnapshotFile(path)); err == nil {
		t.Fatal("a corrupt snapshot must refuse to load")
	}
}

func TestCacheWriteLoadSnapshotStream(t *testing.T) {
	c1, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c1.Set(fmt.Sprintf("k%d", i), []byte("v"), int64(i+1))
	}
	var buf bytes.Buffer
	if err := c1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c2.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || c2.Len() != 10 {
		t.Fatalf("loaded %d entries into a cache of %d, want 10/10", n, c2.Len())
	}
}

// TestCacheSnapshotSmallerCapacity: re-admission goes through the policy, so
// shrinking the cache between save and load keeps the invariants (no
// over-capacity load) instead of failing.
func TestCacheSnapshotSmallerCapacity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.camp")
	c1, err := New(1<<20, WithSnapshotFile(path))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c1.Set(fmt.Sprintf("key-%03d", i), make([]byte, 1024), 10)
	}
	if _, err := c1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	small, err := New(16<<10, WithSnapshotFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if small.Used() > small.Capacity() {
		t.Fatalf("warm start overfilled the cache: %d > %d", small.Used(), small.Capacity())
	}
	if small.Len() == 0 {
		t.Fatal("warm start admitted nothing")
	}
}

func TestSaveSnapshotWithoutPath(t *testing.T) {
	c, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveSnapshot(); err == nil {
		t.Fatal("SaveSnapshot without WithSnapshotFile must error")
	}
}

// TestSetSizedRejectedReadmitKeepsSync is the regression test for the
// silent-drop path in SetSized: when a resident key's re-admit is rejected
// (the policy drops the old version and refuses the new one), the value map
// must drop the stale bytes too, for every policy kind.
func TestSetSizedRejectedReadmitKeepsSync(t *testing.T) {
	for _, kind := range []PolicyKind{CAMP, LRU, GDS, ARC, TwoQ, LFU, GDWheel} {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := New(1<<10, WithPolicy(kind))
			if err != nil {
				t.Fatal(err)
			}
			if !c.SetSized("victim", []byte("old-bytes"), 100, 5) {
				t.Fatal("initial admit failed")
			}
			// Re-admit with a size over capacity: the policy rejects the
			// update. Under the one Ordering contract every policy drops
			// the old version mid-update; either way the value map must
			// agree with the policy exactly.
			if c.SetSized("victim", []byte("new-bytes"), 4<<10, 5) {
				t.Fatal("over-capacity re-admit should be rejected")
			}
			if c.Contains("victim") {
				// The policy kept the old version: the old value and old
				// metadata must still be served together.
				v, ok := c.Get("victim")
				if !ok || string(v) != "old-bytes" {
					t.Fatalf("kept entry serves %q, %v; want the old bytes", v, ok)
				}
				if e, ok := c.Peek("victim"); !ok || e.Size != 100 {
					t.Fatalf("kept entry has metadata %+v, want the old size 100", e)
				}
			} else {
				// The policy dropped the old version mid-update: the value
				// map must not leak the stale bytes.
				if v, ok := c.Get("victim"); ok {
					t.Fatalf("stale value served after rejected re-admit: %q", v)
				}
				for _, s := range c.shards {
					s.mu.Lock()
					_, leaked := s.values["victim"]
					s.mu.Unlock()
					if leaked {
						t.Fatal("value map leaked the dropped entry")
					}
				}
			}
			if got := c.Stats().Rejected; got == 0 {
				t.Fatal("rejected re-admit must count in Stats().Rejected")
			}
			// The cache must keep working for that key afterwards.
			if !c.SetSized("victim", []byte("fresh"), 100, 5) {
				t.Fatal("fresh admit after rejection failed")
			}
			if v, ok := c.Get("victim"); !ok || string(v) != "fresh" {
				t.Fatalf("post-rejection set: %q, %v", v, ok)
			}
		})
	}
}

// TestCacheSnapshotMidChurnExactOrder pins the v2 exactness claim at the
// library surface: a single-shard cache driven through eviction churn (so
// CAMP's priority offsets are non-uniform), snapshotted mid-churn, and
// reloaded into a fresh cache must present the identical eviction schedule —
// the restored policy drains in exactly the saved order — and the identical
// future behavior on a shared suffix of operations.
func TestCacheSnapshotMidChurnExactOrder(t *testing.T) {
	for _, kind := range []PolicyKind{CAMP, GDS, LRU} {
		t.Run(kind.String(), func(t *testing.T) {
			mk := func() *Cache {
				c, err := New(24<<10, WithPolicy(kind))
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			c1 := mk()
			costs := []int64{1, 1, 40, 40, 900, 20000}
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("key-%03d", (i*7)%500)
				if i%4 == 0 {
					c1.Get(key)
				} else {
					c1.Set(key, make([]byte, 80), costs[(i*13)%len(costs)])
				}
			}
			if c1.Stats().Evictions == 0 {
				t.Fatal("no evictions — the mid-churn property is vacuous")
			}
			var buf bytes.Buffer
			if err := c1.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			c2 := mk()
			if _, err := c2.LoadSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if c2.Len() != c1.Len() {
				t.Fatalf("restored %d entries, want %d", c2.Len(), c1.Len())
			}
			order := func(c *Cache) []string {
				s := c.shards[0]
				s.mu.Lock()
				defer s.mu.Unlock()
				var keys []string
				s.policy.Visit(func(n *cache.Node, _, _ uint64) bool {
					keys = append(keys, s.policy.Key(n))
					return true
				})
				return keys
			}
			want, got := order(c1), order(c2)
			if len(want) != len(got) {
				t.Fatalf("restored order has %d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("eviction order diverges at %d/%d: restored %q, saved %q",
						i, len(want), got[i], want[i])
				}
			}
		})
	}
}
