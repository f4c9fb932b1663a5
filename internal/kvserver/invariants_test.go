package kvserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// checkStore fails the test when storeErr finds st broken. The caller holds
// the shard mutex.
func checkStore(t *testing.T, st *store) {
	t.Helper()
	if err := storeErr(st); err != nil {
		t.Fatal(err)
	}
}

// storeErr checks the structural invariants tying a shard's index, its
// policies and its layout together, and reports the first one broken. The
// caller holds the shard mutex.
func storeErr(st *store) error {
	n, used := st.policy.Len(), st.policy.Used()
	for _, ts := range st.tens {
		n += ts.policy.Len()
		used += ts.policy.Used()
	}
	if st.items.Len() != n {
		return fmt.Errorf("index holds %d items, the policies %d", st.items.Len(), n)
	}
	// Every indexed item sits at the ref it records, every ref handed out is
	// indexed or free, and a free slot is the zero item, holding no key or
	// value for the GC to keep.
	// Each item's kv decodes to the key the index finds it under, and in
	// byte mode its value is exactly the buffer's tail; under a copying
	// layout the buffer holds the key alone.
	for it := range st.items.All() {
		if st.items.At(it.ref) != it {
			return fmt.Errorf("%q records ref %d, which holds %q", it.Key(), it.ref, st.items.At(it.ref).Key())
		}
		key := kvbuf.KeyBytes(it.kv)
		if len(key) == 0 || itab.Lookup(st.items, key) != it || it.Key() != string(key) {
			return fmt.Errorf("ref %d: kv %q does not decode to the key the index finds it under", it.ref, it.kv)
		}
		v, tail := st.lay.value(it), kvbuf.Value(it.kv)
		if st.lay.copiesValues() {
			if len(tail) != 0 {
				return fmt.Errorf("%q: a copying layout's item keeps %d value bytes in kv", key, len(tail))
			}
		} else if len(v) != len(tail) || len(v) > 0 && &v[0] != &tail[0] {
			return fmt.Errorf("%q: the value (%d B) is not the kv tail (%d of %d B)", key, len(v), len(tail), len(it.kv))
		}
	}
	free := 0
	for ref := range st.items.FreeRefs() {
		free++
		if it := st.items.At(ref); !reflect.ValueOf(*it).IsZero() {
			return fmt.Errorf("free ref %d still holds %q (%d kv bytes)", ref, it.Key(), len(it.kv))
		}
	}
	if st.items.Len()+free != st.items.Refs() {
		return fmt.Errorf("%d indexed + %d free items, %d refs handed out", st.items.Len(), free, st.items.Refs())
	}
	if st.used() != used {
		return fmt.Errorf("running used total %d != recomputed %d", st.used(), used)
	}
	// expiring is exactly the items that carry a TTL.
	withTTL := 0
	for it := range st.items.All() {
		if it.expires == 0 {
			continue
		}
		withTTL++
		if _, ok := st.expiring[it.ref]; !ok {
			return fmt.Errorf("%q expires at %d but is not filed under expiring", it.Key(), it.expires)
		}
	}
	if withTTL != len(st.expiring) {
		return fmt.Errorf("expiring holds %d entries, the index %d items with a TTL", len(st.expiring), withTTL)
	}
	// Every item's node is linked in exactly the ordering its key routes to
	// (no item in two tenants, none in the wrong one), and each ordering's
	// byte figure is the sum of the nodes it links.
	owner := make(map[*cache.Node]cache.Ordering, st.items.Len())
	own := func(o cache.Ordering) (err error) {
		var linked int64
		o.Visit(func(n *cache.Node, _, _ uint64) bool {
			if prev, dup := owner[n]; dup {
				err = fmt.Errorf("%q is linked in %s and again in %s", nodeKey(n), prev.Name(), o.Name())
				return false
			}
			owner[n] = o
			linked += n.Size
			return true
		})
		if err == nil && linked != o.Used() {
			err = fmt.Errorf("%s links %d bytes of nodes but reports %d used", o.Name(), linked, o.Used())
		}
		return err
	}
	if err := own(st.policy); err != nil {
		return err
	}
	for _, ts := range st.tens {
		if err := own(ts.policy); err != nil {
			return err
		}
	}
	for it := range st.items.All() {
		key := it.Key()
		want, _ := st.stateFor(key)
		if nodeKey(&it.node) != key || owner[&it.node] != want {
			return fmt.Errorf("%q: node keyed %q is linked in %v, its key routes to %v", key, nodeKey(&it.node), owner[&it.node], want)
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
				return fmt.Errorf("%q: record holds key %q flags %d expiry %d", key, k, flags, exp)
			}
			live += int64(binary.PutUvarint(scratch[:], uint64(len(k))) + binary.PutUvarint(scratch[:], uint64(len(v))) + 12 + len(k) + len(v))
		}
		as := l.a.Stats()
		if live != as.LiveBytes || as.LiveBytes+as.DeadBytes > as.HeldBytes || as.HeldBytes > st.cfg.MemoryBytes+l.a.SegmentSize() {
			return fmt.Errorf("items hold %d record bytes against a %d-byte budget; arena %+v", live, st.cfg.MemoryBytes, as)
		}
	default:
		return fmt.Errorf("unknown layout %T", st.lay)
	}
	return nil
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

// storeFixture is a store, in the given mode, holding "a", "b" and "c"
// (only "c" with a TTL) and one free ref, left by "d"'s delete.
func storeFixture(t *testing.T, mode string) *store {
	t.Helper()
	srv, err := New(Config{MemoryBytes: 1 << 20, Mode: mode, DisableIQ: true})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.shards[0].store
	for _, key := range []string{"a", "b", "c", "d"} {
		var expires int64
		if key == "c" {
			expires = time.Now().Add(time.Hour).UnixNano()
		}
		kv := kvbuf.Of([]byte(key), []byte("value-"+key))
		if !st.setAbsPrio(kv, kvbuf.Value(kv), 0, expires, 1, 0, 0, false) {
			t.Fatalf("fixture set %q refused", key)
		}
	}
	st.remove(itab.Lookup(st.items, "d"))
	return st
}

// foreignLayout is a layout storeErr has no case for; cloningLayout also
// hands out values that are not the item's kv tail.
type foreignLayout struct{ layout }
type cloningLayout struct{ layout }

func (l cloningLayout) value(it *item) []byte { return bytes.Clone(l.layout.value(it)) }

// shadowOrdering reports no entries of its own but visits another
// ordering's nodes, so those nodes are linked twice.
type shadowOrdering struct{ cache.Ordering }

func (shadowOrdering) Len() int     { return 0 }
func (shadowOrdering) Used() int64  { return 0 }
func (shadowOrdering) Name() string { return "shadow" }

// storeCorruptions has one entry per storeErr failure branch; mode names the
// one layout a branch belongs to, "" both.
var storeCorruptions = []struct {
	name, mode string
	corrupt    func(st *store, a *item)
	want       string
}{
	{"policy-count", "", func(st *store, a *item) { st.policy.Remove(&a.node) }, "index holds 3 items, the policies 2"},
	{"ref", "", func(st *store, a *item) { a.ref = itab.Lookup(st.items, "b").ref }, `"a" records ref`},
	{"kv-key", "", func(st *store, a *item) { a.kv = kvbuf.Of([]byte("z"), kvbuf.Value(a.kv)) }, "does not decode to the key"},
	{"kv-value", ModeArena, func(st *store, a *item) { a.kv = kvbuf.Of([]byte("a"), []byte("v")) }, "a copying layout's item keeps 1 value bytes"},
	{"value-tail", ModeByte, func(st *store, a *item) { st.lay = cloningLayout{st.lay} }, "is not the kv tail"},
	{"free-slot", "", func(st *store, a *item) {
		for ref := range st.items.FreeRefs() {
			st.items.At(ref).flags = 7
		}
	}, "still holds"},
	{"refs", "", func(st *store, a *item) { st.items.Alloc() }, "3 indexed + 0 free items, 4 refs handed out"},
	{"used", "", func(st *store, a *item) { st.totalUsed++ }, "running used total"},
	{"expiry-unfiled", "", func(st *store, a *item) { a.expires = 1 }, `"a" expires at 1 but is not filed`},
	{"expiry-count", "", func(st *store, a *item) { st.expiring[a.ref] = struct{}{} }, "expiring holds 2 entries, the index 1"},
	{"linked-twice", "", func(st *store, a *item) {
		st.tens = map[string]*tenantState{"shadow": {policy: shadowOrdering{st.policy}}}
	}, "and again in shadow"},
	{"ordering-bytes", "", func(st *store, a *item) { a.node.Size++ }, "bytes of nodes but reports"},
	{"routing", "", func(st *store, a *item) {
		fresh, err := st.buildPolicy()
		if err != nil {
			panic(err)
		}
		st.tens = map[string]*tenantState{"gold": {policy: st.policy}}
		st.policy = fresh
	}, "its key routes to"},
	{"record", ModeArena, func(st *store, a *item) { a.flags++ }, `"a": record holds key "a" flags 0`},
	{"arena-live", ModeArena, func(st *store, a *item) { st.lay.release(a.loc) }, "record bytes against"},
	{"layout", "", func(st *store, a *item) { st.lay = foreignLayout{st.lay} }, "unknown layout kvserver.foreignLayout"},
}

// TestCheckStoreBranches feeds storeErr one corrupt store per failure branch,
// in each layout the branch belongs to, and expects that branch's error, so
// a checker that always passed would fail here.
func TestCheckStoreBranches(t *testing.T) {
	for _, mode := range []string{ModeByte, ModeArena} {
		if err := storeErr(storeFixture(t, mode)); err != nil {
			t.Fatalf("%s fixture: %v", mode, err)
		}
		for _, tc := range storeCorruptions {
			if tc.mode != "" && tc.mode != mode {
				continue
			}
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				st := storeFixture(t, mode)
				tc.corrupt(st, itab.Lookup(st.items, "a"))
				if err := storeErr(st); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("storeErr = %v, want an error containing %q", err, tc.want)
				}
			})
		}
	}
}
