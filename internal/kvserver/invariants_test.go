package kvserver

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"camp/internal/alloc"
	"camp/internal/cache"
)

// TestItemFootprint pins what a resident key costs the heap: Go rounds an
// object up to its size class, so an item over 128 B lands in the 160-B class
// and every key pays 32 B more. A new field on item or cache.Node must fit,
// or the change must say why keys should cost more.
func TestItemFootprint(t *testing.T) {
	if got := unsafe.Sizeof(cache.Node{}); got > 72 {
		t.Errorf("cache.Node is %d B, over its 72-B share of a 128-B item", got)
	}
	if got := unsafe.Sizeof(item{}); got > 120 {
		t.Errorf("item is %d B, over its 120-B budget in the 128-B size class (the next class is 160 B)", got)
	}
}

// checkStore asserts the structural invariants tying a shard's index, its
// policies and its layout together. The caller holds the shard mutex.
func checkStore(t *testing.T, st *store) {
	t.Helper()
	n, used := st.policy.Len(), st.policy.Used()
	for _, ts := range st.tens {
		n += ts.policy.Len()
		used += ts.policy.Used()
	}
	if len(st.items) != n {
		t.Fatalf("index holds %d items, the policies %d", len(st.items), n)
	}
	if st.used() != used {
		t.Fatalf("running used total %d != recomputed %d", st.used(), used)
	}
	// expiring is exactly the items that carry a TTL.
	withTTL := 0
	for key, it := range st.items {
		if it.expires == 0 {
			continue
		}
		withTTL++
		if st.expiring[key] != it {
			t.Fatalf("%q expires at %d but is not filed under expiring", key, it.expires)
		}
	}
	if withTTL != len(st.expiring) {
		t.Fatalf("expiring holds %d entries, the index %d items with a TTL", len(st.expiring), withTTL)
	}
	// Every item's node is linked in exactly the ordering its key routes to
	// (no item in two tenants, none in the wrong one), and each ordering's
	// byte figure is the sum of the nodes it links. The class LRUs stand in
	// for the slab layout, whose own Used() counts chunks, not charged sizes.
	owner := make(map[*cache.Node]cache.Ordering, len(st.items))
	own := func(o cache.Ordering) {
		var bytes int64
		o.Visit(func(n *cache.Node, _, _ uint64) bool {
			if prev, dup := owner[n]; dup {
				t.Fatalf("%q is linked in %s and again in %s", n.Key, prev.Name(), o.Name())
			}
			owner[n] = o
			bytes += n.Size
			return true
		})
		if bytes != o.Used() {
			t.Fatalf("%s links %d bytes of nodes but reports %d used", o.Name(), bytes, o.Used())
		}
	}
	if sl, ok := st.lay.(*slabLayout); ok {
		for _, c := range sl.lru {
			own(c)
		}
	} else {
		own(st.policy)
		for _, ts := range st.tens {
			own(ts.policy)
		}
	}
	for key, it := range st.items {
		want, _ := st.stateFor(key)
		if sl, ok := st.lay.(*slabLayout); ok {
			class, err := sl.a.ClassFor(it.node.Size)
			if err != nil {
				t.Fatalf("%q: charged size %d fits no slab class", key, it.node.Size)
			}
			want = sl.lru[class]
		}
		if it.node.Key != key || owner[&it.node] != want {
			t.Fatalf("%q: node keyed %q is linked in %v, its key routes to %v", key, it.node.Key, owner[&it.node], want)
		}
	}
	// Every item's loc must be live in the layout, and the layout must hold
	// nothing the index does not.
	switch l := st.lay.(type) {
	case byteLayout:
	case *buddyLayout:
		if err := l.b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var blocks int64
		for key, it := range st.items {
			b, err := l.b.BlockSize(st.itemSize(key, it.value))
			if err != nil {
				t.Fatalf("%q: %v", key, err)
			}
			blocks += b
		}
		if blocks != l.b.Used() {
			t.Fatalf("items occupy %d block bytes, the allocator has %d in use", blocks, l.b.Used())
		}
	case *slabLayout:
		for key, it := range st.items {
			if owner, ok := l.a.Owner(alloc.HandleOf(it.loc)); !ok || owner != key {
				t.Fatalf("%q: chunk owned by %q (allocated=%v)", key, owner, ok)
			}
		}
		chunks := 0
		for _, cs := range l.a.Stats() {
			chunks += cs.UsedChunks
		}
		if chunks != len(st.items) {
			t.Fatalf("%d chunks in use for %d items", chunks, len(st.items))
		}
	case *arenaLayout:
		var live int64
		var scratch [binary.MaxVarintLen64]byte
		for key, it := range st.items {
			k, v, flags, exp := l.a.Record(alloc.RefOf(it.loc))
			if string(k) != key || flags != it.flags || exp != it.expires || it.value != nil {
				t.Fatalf("%q: record holds key %q flags %d expiry %d", key, k, flags, exp)
			}
			live += int64(binary.PutUvarint(scratch[:], uint64(len(k))) + binary.PutUvarint(scratch[:], uint64(len(v))) + 12 + len(k) + len(v))
		}
		as := l.a.Stats()
		if live != as.LiveBytes || as.LiveBytes+as.DeadBytes > as.HeldBytes || as.HeldBytes > st.cfg.MemoryBytes+l.a.SegmentSize() {
			t.Fatalf("items hold %d record bytes against a %d-byte budget; arena %+v", live, st.cfg.MemoryBytes, as)
		}
	default:
		t.Fatalf("unknown layout %T", st.lay)
	}
}

// checkServer locks every shard in turn and runs checkStore on it, then
// checks that the server, idle, holds no journal record back.
func checkServer(t *testing.T, s *Server) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		checkStore(t, sh.store)
		sh.mu.Unlock()
	}
	checkJournalsFlushed(t, s)
}

// checkJournalsFlushed asserts that no healthy shard's manager holds pending
// records: what it counts as journal (file plus buffer) is what the live
// segment file holds. The callers' servers are idle, but a follower may be
// between two reads of its link, so the comparison is retried for a while.
func checkJournalsFlushed(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i, sh := range s.shards {
		for sh.mgr != nil && !sh.degraded.Load() {
			info := sh.mgr.Info()
			if !info.AOFEnabled {
				break
			}
			st, err := os.Stat(filepath.Join(sh.mgr.Dir(), fmt.Sprintf("aof-%08d.log", info.Generation)))
			if err == nil && st.Size() == info.AOFSize {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: idle, yet the journal counts %d bytes and its segment file holds %v (%v)", i, info.AOFSize, st, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
