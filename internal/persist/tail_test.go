package persist

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func setOp(key, val string) Op {
	return Op{Kind: KindSet, Key: key, Value: []byte(val), Size: int64(len(key) + len(val)), Cost: 1}
}

// nextRecord drives Next until a record (not a generation switch) arrives.
func nextRecord(t *testing.T, tr *TailReader, wait time.Duration) (Op, TailEvent) {
	t.Helper()
	for {
		ev, err := tr.Next(wait, nil)
		if err != nil {
			t.Fatalf("tail next: %v", err)
		}
		if ev.Record == nil {
			continue
		}
		op, used, err := DecodeRecord(ev.Record)
		if err != nil || used != len(ev.Record) {
			t.Fatalf("tail produced undecodable record: %v (used %d of %d)", err, used, len(ev.Record))
		}
		return op, ev
	}
}

func TestTailReaderFollowsAppends(t *testing.T) {
	st := newMapStore()
	m, _ := openTest(t, t.TempDir(), Options{Fsync: FsyncNo}, st)
	defer m.Close()

	tr, err := m.TailFrom(1, SegmentHeaderLen)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if _, err := tr.Next(0, nil); !errors.Is(err, ErrTailTimeout) {
		t.Fatalf("empty journal tail: %v, want ErrTailTimeout", err)
	}
	want := []Op{setOp("a", "1"), setOp("b", "2"), {Kind: KindDelete, Key: "a"}}
	for _, op := range want {
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	flushTest(t, m)
	for i, w := range want {
		got, ev := nextRecord(t, tr, time.Second)
		if got.Kind != w.Kind || got.Key != w.Key || !bytes.Equal(got.Value, w.Value) {
			t.Fatalf("record %d: got %+v want %+v", i, got, w)
		}
		if ev.Gen != 1 {
			t.Fatalf("record %d in generation %d, want 1", i, ev.Gen)
		}
	}
	// A blocked tail wakes on the next append.
	done := make(chan Op, 1)
	go func() {
		op, _ := nextRecord(t, tr, 5*time.Second)
		done <- op
	}()
	time.Sleep(20 * time.Millisecond)
	if err := m.Append(setOp("late", "x")); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	select {
	case op := <-done:
		if op.Key != "late" {
			t.Fatalf("woken tail read %q, want late", op.Key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail never woke on append")
	}
}

// TestTailNextWakesOnStop: closing stop ends an idle wait at once with
// ErrClosed, a record journaled before the stop is still returned first, and
// a nil stop leaves Next as it was.
func TestTailNextWakesOnStop(t *testing.T) {
	st := newMapStore()
	m, _ := openTest(t, t.TempDir(), Options{Fsync: FsyncNo}, st)
	defer m.Close()
	tr, err := m.TailFrom(1, SegmentHeaderLen)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		_, err := tr.Next(time.Hour, stop)
		errC <- err
	}()
	time.Sleep(20 * time.Millisecond) // most likely parked in the wait by now; if not, it sees stop closed there
	close(stop)
	select {
	case err := <-errC:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("woken idle wait: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next(time.Hour, stop) still waiting 5s after close(stop)")
	}

	if err := m.Append(setOp("k", "v")); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	stop = make(chan struct{})
	close(stop)
	ev, err := tr.Next(time.Hour, stop)
	if err != nil || ev.Record == nil {
		t.Fatalf("record journaled before the stop: event %+v, err %v", ev, err)
	}
	if op, _, err := DecodeRecord(ev.Record); err != nil || op.Key != "k" {
		t.Fatalf("record journaled before the stop decoded to %+v, %v", op, err)
	}
	if _, err := tr.Next(time.Hour, stop); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained tail after the stop: %v, want ErrClosed", err)
	}
	if _, err := tr.Next(0, nil); !errors.Is(err, ErrTailTimeout) {
		t.Fatalf("Next(0, nil) on an idle journal: %v, want ErrTailTimeout", err)
	}
}

func TestTailReaderCrossesGenerations(t *testing.T) {
	st := newMapStore()
	m, _ := openTest(t, t.TempDir(), Options{Fsync: FsyncNo}, st)
	defer m.Close()

	for _, op := range []Op{setOp("a", "1"), setOp("b", "2")} {
		st.apply(op)
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	flushTest(t, m)
	tr, err := m.TailFrom(1, SegmentHeaderLen)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	nextRecord(t, tr, time.Second)
	nextRecord(t, tr, time.Second)

	if err := m.Compact(st.emit); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(setOp("c", "3")); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)

	ev, err := tr.Next(time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Record != nil || ev.Gen != 2 || ev.Off != SegmentHeaderLen {
		t.Fatalf("expected switch to generation 2, got %+v", ev)
	}
	op, ev := nextRecord(t, tr, time.Second)
	if op.Key != "c" || ev.Gen != 2 {
		t.Fatalf("post-switch record: %+v in gen %d", op, ev.Gen)
	}
	// The reader's position round-trips through TailFrom (a reconnect).
	tr2, err := m.TailFrom(ev.Gen, ev.Off)
	if err != nil {
		t.Fatalf("resume at %d/%d: %v", ev.Gen, ev.Off, err)
	}
	tr2.Close()
}

func TestTailRetentionAcrossCompaction(t *testing.T) {
	st := newMapStore()
	dir := t.TempDir()
	m, _ := openTest(t, dir, Options{Fsync: FsyncNo}, st)
	defer m.Close()

	op := setOp("k", "v")
	st.apply(op)
	if err := m.Append(op); err != nil {
		t.Fatal(err)
	}
	tr, err := m.TailFrom(1, SegmentHeaderLen)
	if err != nil {
		t.Fatal(err)
	}
	// Two compactions would normally GC generation 1; the attached tail
	// must hold it.
	for i := 0; i < 2; i++ {
		if err := m.Compact(st.emit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, aofName(1))); err != nil {
		t.Fatalf("generation 1 GC'd under an attached tail: %v", err)
	}
	tr.Close()
	if err := m.Compact(st.emit); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, aofName(1))); !os.IsNotExist(err) {
		t.Fatalf("generation 1 survived after the tail detached: %v", err)
	}
}

func TestTailFromRejectsBadPositions(t *testing.T) {
	st := newMapStore()
	m, _ := openTest(t, t.TempDir(), Options{Fsync: FsyncNo}, st)
	defer m.Close()
	if err := m.Append(setOp("k", "v")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		gen  uint64
		off  int64
	}{
		{"zero generation", 0, 0},
		{"future generation", 9, SegmentHeaderLen},
		{"offset before header", 1, 3},
		{"offset past end", 1, 1 << 20},
	} {
		if _, err := m.TailFrom(tc.gen, tc.off); !errors.Is(err, ErrStalePosition) {
			t.Fatalf("%s: got %v, want ErrStalePosition", tc.name, err)
		}
	}
	// GC'd generation: compact twice so generation 1 is removed, then ask
	// for it.
	st.apply(setOp("k", "v"))
	for i := 0; i < 2; i++ {
		if err := m.Compact(st.emit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.TailFrom(1, SegmentHeaderLen); !errors.Is(err, ErrStalePosition) {
		t.Fatalf("GC'd generation: got %v, want ErrStalePosition", err)
	}
}

// TestFullSyncMatchesRecovery proves the bootstrap contract: applying the
// FullSync snapshot plus the tailed records reproduces exactly what local
// recovery of the same directory would.
func TestFullSyncMatchesRecovery(t *testing.T) {
	st := newMapStore()
	dir := t.TempDir()
	m, _ := openTest(t, dir, Options{Fsync: FsyncNo}, st)
	defer m.Close()

	journal := func(op Op) {
		st.apply(op)
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		flushTest(t, m)
	}
	journal(setOp("a", "1"))
	journal(setOp("b", "2"))
	if err := m.Compact(st.emit); err != nil {
		t.Fatal(err)
	}
	journal(setOp("c", "3"))
	journal(Op{Kind: KindDelete, Key: "a"})

	fs, err := m.FullSync()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.SnapGen != 2 || fs.Snapshot == nil || fs.SnapSize <= 0 {
		t.Fatalf("full sync source: %+v", fs)
	}
	got := newMapStore()
	if _, err := ReadSnapshot(bufio.NewReader(fs.Snapshot), got.apply); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := fs.Tail.Next(0, nil)
		if errors.Is(err, ErrTailTimeout) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Record == nil {
			continue
		}
		op, _, err := DecodeRecord(ev.Record)
		if err != nil {
			t.Fatal(err)
		}
		got.apply(op)
	}
	if len(got.m) != len(st.m) {
		t.Fatalf("bootstrap produced %d keys, recovery state has %d", len(got.m), len(st.m))
	}
	for k, w := range st.m {
		g, ok := got.m[k]
		if !ok || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("key %q: bootstrap %+v, want %+v", k, g, w)
		}
	}
}

// TestTailStopsAtDetachDiscontinuity: whatever the caller applied while the
// journal was detached is in no segment, only in the healing compaction's
// snapshot, so neither an open tail nor a later TailFrom may carry a follower
// from the old generation into the new one. A compaction with the journal
// attached stays crossable.
func TestTailStopsAtDetachDiscontinuity(t *testing.T) {
	st := newMapStore()
	m, _ := openTest(t, t.TempDir(), Options{Fsync: FsyncNo}, st)
	defer m.Close()
	emit := func(func(Op) error) error { return nil }

	open, err := m.TailFrom(1, SegmentHeaderLen)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if err := m.Append(setOp("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(emit); err != nil { // attached switch 1 -> 2
		t.Fatal(err)
	}
	if op, ev := nextRecord(t, open, time.Second); op.Key != "a" || ev.Gen != 1 {
		t.Fatalf("first record %+v at gen %d", op, ev.Gen)
	}
	if ev, err := open.Next(0, nil); err != nil || ev.Record != nil || ev.Gen != 2 {
		t.Fatalf("attached switch: event %+v, err %v; want a move to generation 2", ev, err)
	}

	m.Detach()
	if err := m.Compact(emit); err != nil { // healing switch 2 -> 3
		t.Fatal(err)
	}
	if err := m.Append(setOp("b", "2")); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	if _, err := open.Next(0, nil); !errors.Is(err, ErrStalePosition) {
		t.Fatalf("open tail crossed the detach: err %v, want ErrStalePosition", err)
	}
	if _, err := m.TailFrom(2, SegmentHeaderLen); !errors.Is(err, ErrStalePosition) {
		t.Fatalf("TailFrom below the detach: err %v, want ErrStalePosition", err)
	}
	fresh, err := m.TailFrom(3, SegmentHeaderLen)
	if err != nil {
		t.Fatalf("TailFrom the healed generation: %v", err)
	}
	defer fresh.Close()
	if op, _ := nextRecord(t, fresh, time.Second); op.Key != "b" {
		t.Fatalf("healed generation's first record %+v", op)
	}
}
