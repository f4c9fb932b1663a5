package itab

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

type testItem struct {
	key   string
	value []byte
}

func (it *testItem) Key() string { return it.key }

// universe is the key set operation sequences draw from: every length from 0
// to 250 B, so most keys are longer than the 32 B a string conversion may
// borrow from the stack.
var universe = func() []string {
	keys := make([]string, 4096)
	for i := range keys {
		k := strconv.Itoa(i) + ":"
		keys[i] = (k + strings.Repeat("x", 250))[:max(len(k), i%251)]
	}
	keys[0] = ""
	return keys
}()

// model runs one operation sequence on a Table and on a map reference.
type model struct {
	tb     testing.TB
	t      *Table[testItem, *testItem]
	ref    map[string]uint32
	grows  int
	checks int
}

func newModel(tb testing.TB) *model {
	return &model{tb: tb, t: New[testItem](), ref: make(map[string]uint32)}
}

// run applies ops, three bytes each: an opcode and a key index into
// universe.
func (m *model) run(ops []byte) {
	for ; len(ops) >= 3; ops = ops[3:] {
		m.step(ops[0], universe[(int(ops[1])<<8|int(ops[2]))%len(universe)])
	}
	m.check()
}

func (m *model) step(op byte, key string) {
	tb, t := m.tb, m.t
	switch op % 4 {
	case 0: // insert; a resident key is deleted and its ref reused at once
		if ref, ok := m.ref[key]; ok {
			t.Delete(ref)
			delete(m.ref, key)
		}
		slots := len(t.slots)
		ref, it := t.Alloc()
		if it.key != "" || it.value != nil {
			tb.Fatalf("Alloc handed out ref %d holding %q", ref, it.key)
		}
		it.key, it.value = key, []byte(key)
		t.Insert(ref)
		m.ref[key] = ref
		if len(t.slots) != slots {
			m.grows++
			if load := float64(t.Len()) / float64(len(t.slots)); load <= 2.0/5 || load > 4.0/5 {
				tb.Fatalf("load %.3f after growing to %d slots, want (2/5, 4/5]", load, len(t.slots))
			}
		}
	case 1: // delete
		if ref, ok := m.ref[key]; ok {
			t.Delete(ref)
			delete(m.ref, key)
		}
	case 2: // lookup, as a string and as bytes
		var want *testItem
		if ref, ok := m.ref[key]; ok {
			want = t.At(ref)
		}
		if got := Lookup(t, key); got != want {
			tb.Fatalf("Lookup(%q) = %p, want %p", key, got, want)
		}
		if got := Lookup(t, []byte(key)); got != want {
			tb.Fatalf("Lookup([]byte %q) = %p, want %p", key, got, want)
		}
	case 3: // an allocation given back unindexed, as a refused admission does
		ref, it := t.Alloc()
		it.key, it.value = key, []byte(key)
		t.Release(ref)
	}
	if t.Len()*5 > len(t.slots)*4 {
		tb.Fatalf("%d items in %d slots, over 4/5 load", t.Len(), len(t.slots))
	}
	if m.checks++; m.checks%64 == 0 {
		m.check()
	}
}

// check compares the whole table with the reference and verifies the index
// structure: each entry's tag is its key's, no empty slot lies between an
// entry and its home, and every ref is indexed or free, never both.
func (m *model) check() {
	tb, t := m.tb, m.t
	if t.Len() != len(m.ref) {
		tb.Fatalf("Len() = %d, the reference holds %d", t.Len(), len(m.ref))
	}
	mask := uint64(len(t.slots) - 1)
	seen := make(map[uint32]bool, t.Len())
	n := 0
	for i, e := range t.slots {
		if e == 0 {
			continue
		}
		n++
		ref := uint32(e) - 1
		it := t.At(ref)
		if r, ok := m.ref[it.key]; !ok || r != ref || seen[ref] {
			tb.Fatalf("slot %d holds ref %d keyed %q; the reference maps it to %d", i, ref, it.key, m.ref[it.key])
		}
		seen[ref] = true
		if uint32(e>>32) != tagOf(t.seed, it.key) {
			tb.Fatalf("slot %d: tag %#x, key %q hashes to %#x", i, e>>32, it.key, tagOf(t.seed, it.key))
		}
		for j := t.home(e); j != uint64(i); j = (j + 1) & mask {
			if t.slots[j] == 0 {
				tb.Fatalf("slot %d (%q) is cut off from its home %d by the empty slot %d", i, it.key, t.home(e), j)
			}
		}
	}
	if n != t.Len() {
		tb.Fatalf("%d entries in the index, Len() = %d", n, t.Len())
	}
	free := 0
	for ref := range t.FreeRefs() {
		free++
		if seen[ref] {
			tb.Fatalf("ref %d is both indexed and free", ref)
		}
		seen[ref] = true
		if it := t.At(ref); it.key != "" || it.value != nil {
			tb.Fatalf("free ref %d still holds %q", ref, it.key)
		}
	}
	if t.Len()+free != t.Refs() {
		tb.Fatalf("%d indexed + %d free != %d refs handed out", t.Len(), free, t.Refs())
	}
	for it := range t.All() {
		if Lookup(t, it.key) != it {
			tb.Fatalf("All yielded %q, which Lookup does not find", it.key)
		}
	}
}

// TestTableModel runs random sequences of inserts, deletes, lookups and
// unindexed allocations against the reference, biased towards inserts so the
// table grows through several doublings.
func TestTableModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := newModel(t)
	ops := make([]byte, 0, 3*40000)
	for range 40000 {
		op := byte(rng.Intn(8)) // 0, 4: insert; 1, 5: delete; 2, 6: lookup; 3, 7: unindexed
		if op == 5 && rng.Intn(2) == 0 {
			op = 4
		}
		k := rng.Intn(len(universe))
		ops = append(ops, op, byte(k>>8), byte(k))
	}
	m.run(ops)
	if m.grows < 3 {
		t.Fatalf("the table grew %d times, want at least 3", m.grows)
	}
	// Delete everything: the index empties and every ref is free.
	for key, ref := range m.ref {
		m.t.Delete(ref)
		delete(m.ref, key)
	}
	m.check()
}

// TestTableWrapAround deletes from a cluster that wraps past the end of the
// index: backward shift must move the entries at slots 0 and 1 back across
// the wrap into the hole at the last slot.
func TestTableWrapAround(t *testing.T) {
	m := newModel(t)
	last := uint64(len(m.t.slots) - 1)
	var wrap []string
	for _, key := range universe {
		if m.t.home(uint64(tagOf(m.t.seed, key))<<32) == last {
			wrap = append(wrap, key)
			if len(wrap) == 3 {
				break
			}
		}
	}
	if len(wrap) < 3 {
		t.Fatal("the universe has fewer than three keys homed at the last slot")
	}
	for _, key := range wrap {
		m.step(0, key)
	}
	if m.t.slots[0] == 0 || m.t.slots[1] == 0 {
		t.Fatalf("the cluster did not wrap: %v", m.t.slots)
	}
	m.step(1, wrap[0])
	m.check()
	if m.t.slots[1] != 0 {
		t.Fatalf("slot 1 still holds an entry after the shift: %v", m.t.slots)
	}
	for _, key := range wrap {
		m.step(2, key)
	}
	m.step(1, wrap[2])
	m.check()
}

// TestLookupAllocs: neither key form allocates, long keys included.
func TestLookupAllocs(t *testing.T) {
	m := newModel(t)
	key := universe[200]
	m.step(0, key)
	b := []byte(key)
	if n := testing.AllocsPerRun(100, func() { Lookup(m.t, b); Lookup(m.t, key) }); n != 0 {
		t.Fatalf("Lookup of a %d-B key allocates %.0f times", len(key), n)
	}
}

// FuzzTable runs arbitrary operation sequences against the reference.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 2, 0, 1, 1, 0, 1, 3, 0, 3, 2, 0, 2})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 1, 0, 0, 1, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		newModel(t).run(ops)
	})
}
