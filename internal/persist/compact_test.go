package persist

import (
	"os"
	"path/filepath"
	"testing"
)

// These tests pin the compaction commit points: a crash between any two
// fsync boundaries of the BeginCompact/Commit cycle must leave a directory
// recovery stitches back losslessly. The cycle's on-disk steps are
//
//	(1) BeginCompact: old segment synced+closed, new segment created with a
//	    synced header — crash here leaves snapshot N-1 + segments N-1 and N;
//	(2) Commit: snapshot serialized to a synced temp file — crash here
//	    additionally leaves a snap-*.tmp-* orphan;
//	(3) Commit: temp renamed over snap-N, directory synced, stale
//	    generations removed — a crash between rename and GC leaves the new
//	    snapshot plus already-subsumed segments.
//
// Until now only migration interruption (kvserver's layout swap) was pinned.

// checkRecovered reopens dir and asserts the recovered map matches want.
func checkRecovered(t *testing.T, dir string, want map[string]Op) RecoverStats {
	t.Helper()
	st := newMapStore()
	m, stats := openTest(t, dir, Options{Fsync: FsyncNo}, st)
	defer m.Close()
	if len(st.m) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(st.m), len(want))
	}
	for k, w := range want {
		g, ok := st.m[k]
		if !ok || string(g.Value) != string(w.Value) {
			t.Fatalf("key %q: recovered %+v, want %+v", k, g, w)
		}
	}
	return stats
}

// TestCrashBetweenBeginCompactAndCommit covers commit point (1): the journal
// has moved to the new generation but no snapshot anchors it yet. Recovery
// must replay the old snapshot (if any) plus BOTH segments.
func TestCrashBetweenBeginCompactAndCommit(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)

	journal := func(op Op) {
		st.apply(op)
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		flushTest(t, m)
	}
	journal(setOp("old", "1"))
	journal(setOp("gone", "x"))
	c, err := m.BeginCompact()
	if err != nil {
		t.Fatal(err)
	}
	// Ops landing after the segment switch but before the snapshot commit.
	journal(setOp("new", "2"))
	journal(Op{Kind: KindDelete, Key: "gone"})
	_ = c // crash before Commit
	m.Kill()

	stats := checkRecovered(t, dir, st.m)
	if stats.SnapshotOps != 0 {
		t.Fatalf("no snapshot was committed, yet recovery loaded %d snapshot ops", stats.SnapshotOps)
	}
	if stats.Generation != 2 {
		t.Fatalf("recovered into generation %d, want 2", stats.Generation)
	}
	if stats.ReplayedOps != 4 {
		t.Fatalf("replayed %d ops across the two segments, want 4", stats.ReplayedOps)
	}
}

// TestCrashDuringCommitLeavesTempSnapshot covers commit point (2): the
// snapshot temp file exists but was never renamed. Recovery must ignore the
// orphan and stitch from the previous snapshot + both segments.
func TestCrashDuringCommitLeavesTempSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)

	journal := func(op Op) {
		st.apply(op)
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		flushTest(t, m)
	}
	journal(setOp("a", "1"))
	if _, err := m.BeginCompact(); err != nil {
		t.Fatal(err)
	}
	journal(setOp("b", "2"))
	// Simulate the crash mid-serialization: a half-written temp with the
	// snapshot's name shape (CreateTemp's suffix) and garbage content.
	orphan := filepath.Join(dir, snapName(2)+".tmp-12345")
	if err := os.WriteFile(orphan, []byte("partial snapshot bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Kill()

	stats := checkRecovered(t, dir, st.m)
	if stats.SnapshotOps != 0 {
		t.Fatalf("orphan temp must not be loaded as a snapshot (got %d ops)", stats.SnapshotOps)
	}
	if stats.ReplayedOps != 2 {
		t.Fatalf("replayed %d ops, want 2", stats.ReplayedOps)
	}
}

// TestCrashAfterSnapshotRenameBeforeGC covers commit point (3): the new
// snapshot landed but superseded files were never removed. Recovery must
// prefer the newest snapshot and skip subsumed segments — a resurrected old
// segment must not replay stale ops over the snapshot.
func TestCrashAfterSnapshotRenameBeforeGC(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)

	journal := func(op Op) {
		st.apply(op)
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		flushTest(t, m)
	}
	journal(setOp("stale", "old-value"))
	journal(Op{Kind: KindDelete, Key: "stale"})
	journal(setOp("keep", "1"))

	// Preserve generation 1's segment, then compact (which GCs it) and put
	// it back: the directory now looks exactly like a crash after Commit's
	// rename but before removeStale.
	seg1 := filepath.Join(dir, aofName(1))
	saved, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(st.emit); err != nil {
		t.Fatal(err)
	}
	journal(setOp("tail", "2"))
	if err := os.WriteFile(seg1, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	m.Kill()

	stats := checkRecovered(t, dir, st.m)
	if stats.SnapshotOps != 1 {
		t.Fatalf("recovered %d snapshot ops, want 1 (only keep is live)", stats.SnapshotOps)
	}
	// Only the post-snapshot segment replays; the resurrected generation 1
	// is subsumed.
	if stats.ReplayedOps != 1 {
		t.Fatalf("replayed %d ops, want 1 (the tail set)", stats.ReplayedOps)
	}
	// And the next open GCs the leftover.
	st2 := newMapStore()
	m2, _ := openTest(t, dir, Options{Fsync: FsyncNo}, st2)
	m2.Close()
	if _, err := os.Stat(seg1); !os.IsNotExist(err) {
		t.Fatalf("subsumed segment not GC'd on reopen: %v", err)
	}
}

// TestCrashTornNewSegmentHeader covers a crash inside BeginCompact's segment
// creation: the new segment exists but its header never finished. Recovery
// truncates the torn header (it is the final segment) and replays everything
// before it; reopening heals the segment in place.
func TestCrashTornNewSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)

	journal := func(op Op) {
		st.apply(op)
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		flushTest(t, m)
	}
	journal(setOp("a", "1"))
	if _, err := m.BeginCompact(); err != nil {
		t.Fatal(err)
	}
	m.Kill()
	// Tear the fresh segment's header to 3 bytes.
	seg2 := filepath.Join(dir, aofName(2))
	if err := os.Truncate(seg2, 3); err != nil {
		t.Fatal(err)
	}

	stats := checkRecovered(t, dir, st.m)
	if stats.TruncatedBytes != 3 {
		t.Fatalf("truncated %d bytes, want the 3-byte torn header", stats.TruncatedBytes)
	}
	if stats.ReplayedOps != 1 {
		t.Fatalf("replayed %d ops, want 1", stats.ReplayedOps)
	}
}
