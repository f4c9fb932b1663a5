package alloc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// arenaModel drives an Arena the way kvserver does — append the new record
// first, then release the old one, keeping a reference model of what must be
// live — so tests and the fuzzer share one correctness oracle.
type arenaModel struct {
	t    testing.TB
	a    *Arena
	refs map[string]Ref
	vals map[string][]byte
	exps map[string]int64
}

func newArenaModel(t testing.TB, capacity, segSize int64) *arenaModel {
	a, err := NewArena(capacity, segSize)
	if err != nil {
		t.Fatal(err)
	}
	return &arenaModel{t: t, a: a, refs: map[string]Ref{}, vals: map[string][]byte{}, exps: map[string]int64{}}
}

func (m *arenaModel) alive(key []byte, ref Ref) bool {
	r, ok := m.refs[string(key)]
	return ok && r == ref
}

func (m *arenaModel) moved(key []byte, ref Ref) {
	k := string(key)
	if _, ok := m.refs[k]; !ok {
		m.t.Fatalf("compactor relocated unindexed key %q", k)
	}
	m.refs[k] = ref
}

// set mirrors the store's ordering: append, compact/fail on pressure,
// release the previous version only after the new one landed.
func (m *arenaModel) set(key string, value []byte, exp int64) bool {
	defer m.checkHeld()
	var ref Ref
	for {
		r, err := m.a.Append(key, value, 7, exp)
		if err == nil {
			ref = r
			break
		}
		if !m.a.CompactForce(m.alive, m.moved) {
			return false
		}
	}
	if old, ok := m.refs[key]; ok {
		m.a.Release(old)
	}
	m.refs[key] = ref
	m.vals[key] = append([]byte(nil), value...)
	m.exps[key] = exp
	return true
}

func (m *arenaModel) del(key string) {
	defer m.checkHeld()
	if ref, ok := m.refs[key]; ok {
		m.a.Release(ref)
		delete(m.refs, key)
		delete(m.vals, key)
		delete(m.exps, key)
	}
}

// checkHeld bounds the memory the arena holds after every step: its budget,
// plus the one segment a relocation may borrow until its victim recycles.
func (m *arenaModel) checkHeld() {
	m.t.Helper()
	if held, limit := m.a.Stats().HeldBytes, m.a.capacity+m.a.segSize; held > limit {
		m.t.Fatalf("arena holds %d bytes, budget plus one segment is %d", held, limit)
	}
}

// check verifies the index and the byte region agree: every modeled key
// decodes byte-for-byte at its Ref, and the live-byte counter matches the
// records the index can reach (no live record orphaned, none leaked).
func (m *arenaModel) check() {
	m.t.Helper()
	var live int64
	for k, ref := range m.refs {
		key, value, flags, exp, _ := decodeRecord(m.a.segs[ref.seg].buf[ref.off:])
		if string(key) != k {
			m.t.Fatalf("ref for %q decodes key %q", k, key)
		}
		if RefOf(ref.Word()) != ref {
			m.t.Fatalf("RefOf(Word) = %+v, want %+v", RefOf(ref.Word()), ref)
		}
		if !bytes.Equal(value, m.vals[k]) {
			m.t.Fatalf("value mismatch for %q: got %q want %q", k, value, m.vals[k])
		}
		if flags != 7 {
			m.t.Fatalf("flags mismatch for %q: got %d", k, flags)
		}
		if exp != m.exps[k] {
			m.t.Fatalf("expiry mismatch for %q: got %d want %d", k, exp, m.exps[k])
		}
		live += recordSize(len(key), len(value))
	}
	m.checkHeld()
	st := m.a.Stats()
	if st.LiveBytes != live {
		m.t.Fatalf("live bytes %d, index sums to %d", st.LiveBytes, live)
	}
	if st.DeadBytes < 0 || st.HeldBytes < 0 {
		m.t.Fatalf("negative accounting: %+v", st)
	}
}

func TestArenaSetGetOverwriteDelete(t *testing.T) {
	m := newArenaModel(t, 1<<20, 0)
	for i := 0; i < 200; i++ {
		m.set(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(i)}, 50+i), int64(i))
	}
	m.check()
	// Overwrites mark the old bytes dead and stay readable.
	for i := 0; i < 200; i += 2 {
		m.set(fmt.Sprintf("key-%03d", i), []byte("overwritten"), 0)
	}
	m.check()
	if st := m.a.Stats(); st.DeadBytes == 0 {
		t.Fatal("overwrites created no dead bytes")
	}
	for i := 1; i < 200; i += 2 {
		m.del(fmt.Sprintf("key-%03d", i))
	}
	m.check()
}

func TestArenaTouchExpiry(t *testing.T) {
	m := newArenaModel(t, 1<<20, 0)
	m.set("k", []byte("v"), 100)
	m.a.TouchExpiry(m.refs["k"], 424242)
	_, _, _, exp := m.a.Record(m.refs["k"])
	if exp != 424242 {
		t.Fatalf("expiry after touch = %d, want 424242", exp)
	}
	// The rewrite must not corrupt the neighbors.
	m.exps["k"] = 424242
	m.set("k2", []byte("v2"), 0)
	m.check()
}

// TestArenaCompactionInvariant is the satellite compaction-invariant test:
// forced compaction in the middle of churn preserves every live value
// byte-for-byte, and the dead-byte ratio drops once victims recycle.
func TestArenaCompactionInvariant(t *testing.T) {
	m := newArenaModel(t, 64<<10, 2048)
	rng := rand.New(rand.NewSource(1))
	val := func(i int) []byte {
		b := make([]byte, 40+rng.Intn(120))
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	for round := 0; round < 30; round++ {
		for i := 0; i < 40; i++ {
			if !m.set(fmt.Sprintf("key-%02d", i), val(i), int64(round)) {
				t.Fatalf("set failed on round %d", round)
			}
		}
		// Mid-churn forced compaction: every live value must survive
		// byte-for-byte, and the step accounting must stay balanced.
		if round%5 == 4 {
			before := m.a.Stats()
			for m.a.CompactForce(m.alive, m.moved) {
			}
			after := m.a.Stats()
			if after.DeadBytes >= before.DeadBytes && before.DeadBytes > 0 {
				t.Fatalf("dead ratio did not drop: before %d, after %d", before.DeadBytes, after.DeadBytes)
			}
			m.check()
		}
	}
	if st := m.a.Stats(); st.Compactions == 0 {
		t.Fatal("churn past the dead threshold never compacted")
	}
	m.check()
}

// TestArenaIncrementalCompaction drives the bounded step path: a sealed
// segment crossing the 50% dead threshold queues itself, and small
// CompactStep budgets relocate the survivors incrementally.
func TestArenaIncrementalCompaction(t *testing.T) {
	m := newArenaModel(t, 64<<10, 2048)
	for i := 0; i < 120; i++ {
		m.set(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{'x'}, 80), 0)
	}
	// Kill three of every four early keys: the first segments cross the 50%
	// dead threshold but still hold survivors the compactor must relocate.
	for i := 0; i < 100; i++ {
		if i%4 != 0 {
			m.del(fmt.Sprintf("key-%03d", i))
		}
	}
	if !m.a.NeedsCompaction() {
		t.Fatal("arena should need compaction after mass deletes")
	}
	steps := 0
	for m.a.NeedsCompaction() {
		scanned, _ := m.a.CompactStep(512, m.alive, m.moved)
		steps++
		if scanned == 0 && m.a.NeedsCompaction() {
			t.Fatal("compaction stalled with victims queued")
		}
		if steps > 10_000 {
			t.Fatal("compaction never drained")
		}
	}
	if steps < 2 {
		t.Fatalf("bounded steps should take multiple calls, took %d", steps)
	}
	m.check()
	if st := m.a.Stats(); st.Compactions == 0 || st.RelocatedBytes == 0 {
		t.Fatalf("stats missed the compaction: %+v", st)
	}
}

func TestArenaOversizeRecords(t *testing.T) {
	m := newArenaModel(t, 64<<10, 2048)
	big := bytes.Repeat([]byte{'b'}, 8000) // > segSize: dedicated segment
	if !m.set("big", big, 0) {
		t.Fatal("oversize set failed")
	}
	m.set("small", []byte("s"), 0)
	m.check()
	held := m.a.Stats().HeldBytes
	m.del("big")
	if after := m.a.Stats().HeldBytes; after >= held {
		t.Fatalf("dropping the oversize record kept its memory: %d -> %d", held, after)
	}
	m.check()
	// The freed slot is reusable.
	if !m.set("big2", big, 0) {
		t.Fatal("oversize slot not reusable")
	}
	m.check()
}

func TestArenaBudget(t *testing.T) {
	m := newArenaModel(t, 8<<10, 2048)
	filled := 0
	for i := 0; ; i++ {
		if !m.set(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{'f'}, 100), 0) {
			break
		}
		filled++
		if filled > 1000 {
			t.Fatal("arena never hit its budget")
		}
	}
	m.check()
	// Deleting entries and retrying must succeed again: the dead bytes are
	// compactable.
	for i := 0; i < filled/2; i++ {
		m.del(fmt.Sprintf("key-%04d", i))
	}
	if !m.set("after", []byte("room again"), 0) {
		t.Fatal("set failed after deletes freed half the arena")
	}
	m.check()
	if st := m.a.Stats(); st.HeldBytes > 8<<10+2048 {
		t.Fatalf("held bytes %d exceed budget plus one segment of slack", st.HeldBytes)
	}
}

// TestArenaPaysBackOvershoot churns a nearly full arena, where relocation
// regularly finds no free segment and borrows one past the budget. Each
// borrowed segment must be paid back when its victim recycles (checkHeld runs
// after every set); retaining the victim instead ratchets the held bytes up
// by one segment per borrow.
func TestArenaPaysBackOvershoot(t *testing.T) {
	m := newArenaModel(t, 16<<10, 2048)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		key := fmt.Sprintf("key-%02d", rng.Intn(90))
		if !m.set(key, bytes.Repeat([]byte{byte(i)}, 60+rng.Intn(80)), 0) {
			m.del(fmt.Sprintf("key-%02d", rng.Intn(90))) // full: evict, as the store would
		}
		if m.a.NeedsCompaction() {
			m.a.CompactStep(512, m.alive, m.moved)
		}
	}
	m.check()
	if st := m.a.Stats(); st.Compactions == 0 {
		t.Fatal("churn never compacted")
	}
}

// FuzzArenaSetGet churns random set/delete/overwrite/expiry traffic and
// checks after every mutation that the index and the byte region agree —
// no live record orphaned, no stale bytes reachable (the satellite fuzz
// target; wired into make fuzz / fuzz-smoke).
func FuzzArenaSetGet(f *testing.F) {
	f.Add([]byte("seed"), int64(42))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7b}, 40), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		m := newArenaModel(t, 32<<10, 1024)
		rng := rand.New(rand.NewSource(seed))
		for i, b := range data {
			key := fmt.Sprintf("key-%02d", b%37)
			switch b % 4 {
			case 0, 1:
				v := make([]byte, rng.Intn(200))
				for j := range v {
					v[j] = byte(i + j)
				}
				m.set(key, v, int64(b))
			case 2:
				m.del(key)
			case 3:
				if ref, ok := m.refs[key]; ok {
					m.a.TouchExpiry(ref, int64(i))
					m.exps[key] = int64(i)
				}
				if b%8 == 3 {
					m.a.CompactStep(256, m.alive, m.moved)
				}
			}
			if i%16 == 15 {
				m.check()
			}
		}
		for m.a.CompactForce(m.alive, m.moved) {
		}
		m.check()
	})
}
