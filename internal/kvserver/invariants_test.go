package kvserver

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"camp/internal/alloc"
	"camp/internal/cache"
	"camp/internal/itab"
	"camp/internal/kvbuf"
)

// TestItemFootprint pins what a resident key costs the heap. Items are not
// heap objects of their own: they sit in itab chunks of itab.ChunkLen, so a
// key costs exactly unsafe.Sizeof(item) plus its one kv buffer (key and
// value together), and a chunk is a whole number of 8-KiB pages (1024 ×
// 104 B = 13 pages), so no span tail is wasted. A new field on item or
// cache.Node must fit the 104-B budget, or the change must say why every
// key should cost more.
func TestItemFootprint(t *testing.T) {
	if got := unsafe.Sizeof(cache.Node{}); got > 56 {
		t.Errorf("cache.Node is %d B, over its 56-B share of a 104-B item", got)
	}
	if got := unsafe.Sizeof(item{}); got > 104 {
		t.Errorf("item is %d B, over its 104-B budget", got)
	}
	if chunk := itab.ChunkLen * unsafe.Sizeof(item{}); chunk%(8<<10) != 0 {
		t.Errorf("an item chunk is %d B, not a whole number of 8-KiB pages", chunk)
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
	if st.items.Len() != n {
		t.Fatalf("index holds %d items, the policies %d", st.items.Len(), n)
	}
	// Every indexed item sits at the ref it records, every ref handed out is
	// indexed or free, and a free slot is the zero item, holding no key or
	// value for the GC to keep.
	// Each item's kv decodes to the key the index finds it under, and in
	// byte mode its value is exactly the buffer's tail; under a copying
	// layout the buffer holds the key alone.
	for it := range st.items.All() {
		if st.items.At(it.ref) != it {
			t.Fatalf("%q records ref %d, which holds %q", it.Key(), it.ref, st.items.At(it.ref).Key())
		}
		key := kvbuf.KeyBytes(it.kv)
		if len(key) == 0 || itab.Lookup(st.items, key) != it || it.Key() != string(key) {
			t.Fatalf("ref %d: kv %q does not decode to the key the index finds it under", it.ref, it.kv)
		}
		v, tail := st.lay.value(it), kvbuf.Value(it.kv)
		if st.lay.copiesValues() {
			if len(tail) != 0 {
				t.Fatalf("%q: a copying layout's item keeps %d value bytes in kv", key, len(tail))
			}
		} else if len(v) != len(tail) || len(v) > 0 && &v[0] != &tail[0] {
			t.Fatalf("%q: the value (%d B) is not the kv tail (%d of %d B)", key, len(v), len(tail), len(it.kv))
		}
	}
	free := 0
	for ref := range st.items.FreeRefs() {
		free++
		if it := st.items.At(ref); !reflect.ValueOf(*it).IsZero() {
			t.Fatalf("free ref %d still holds %q (%d kv bytes)", ref, it.Key(), len(it.kv))
		}
	}
	if st.items.Len()+free != st.items.Refs() {
		t.Fatalf("%d indexed + %d free items, %d refs handed out", st.items.Len(), free, st.items.Refs())
	}
	if st.used() != used {
		t.Fatalf("running used total %d != recomputed %d", st.used(), used)
	}
	// expiring is exactly the items that carry a TTL.
	withTTL := 0
	for it := range st.items.All() {
		if it.expires == 0 {
			continue
		}
		withTTL++
		if _, ok := st.expiring[it.ref]; !ok {
			t.Fatalf("%q expires at %d but is not filed under expiring", it.Key(), it.expires)
		}
	}
	if withTTL != len(st.expiring) {
		t.Fatalf("expiring holds %d entries, the index %d items with a TTL", len(st.expiring), withTTL)
	}
	// Every item's node is linked in exactly the ordering its key routes to
	// (no item in two tenants, none in the wrong one), and each ordering's
	// byte figure is the sum of the nodes it links.
	owner := make(map[*cache.Node]cache.Ordering, st.items.Len())
	own := func(o cache.Ordering) {
		var bytes int64
		o.Visit(func(n *cache.Node, _, _ uint64) bool {
			if prev, dup := owner[n]; dup {
				t.Fatalf("%q is linked in %s and again in %s", nodeKey(n), prev.Name(), o.Name())
			}
			owner[n] = o
			bytes += n.Size
			return true
		})
		if bytes != o.Used() {
			t.Fatalf("%s links %d bytes of nodes but reports %d used", o.Name(), bytes, o.Used())
		}
	}
	own(st.policy)
	for _, ts := range st.tens {
		own(ts.policy)
	}
	for it := range st.items.All() {
		key := it.Key()
		want, _ := st.stateFor(key)
		if nodeKey(&it.node) != key || owner[&it.node] != want {
			t.Fatalf("%q: node keyed %q is linked in %v, its key routes to %v", key, nodeKey(&it.node), owner[&it.node], want)
		}
	}
	// Every item's loc must be live in the layout, and the layout must hold
	// nothing the index does not.
	switch l := st.lay.(type) {
	case byteLayout:
	case *arenaLayout:
		var live int64
		var scratch [binary.MaxVarintLen64]byte
		for it := range st.items.All() {
			key := it.Key()
			k, v, flags, exp := l.a.Record(alloc.RefOf(it.loc))
			if string(k) != key || flags != it.flags || exp != it.expires {
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
