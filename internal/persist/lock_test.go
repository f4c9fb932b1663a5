package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenRefusesLockedDir is the satellite acceptance case: two managers
// pointed at the same data directory must not both come up — the second
// would interleave appends into the first one's journal.
func TestOpenRefusesLockedDir(t *testing.T) {
	dir := t.TempDir()
	m1, _, err := Open(Options{Dir: dir}, newMapStore().apply)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}, newMapStore().apply); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open on a live dir: got %v, want ErrLocked", err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock, so a successor can take over.
	m2, _, err := Open(Options{Dir: dir}, newMapStore().apply)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	m2.Close()
}

func TestKillReleasesLock(t *testing.T) {
	dir := t.TempDir()
	m1, _, err := Open(Options{Dir: dir}, newMapStore().apply)
	if err != nil {
		t.Fatal(err)
	}
	m1.Kill()
	m2, _, err := Open(Options{Dir: dir}, newMapStore().apply)
	if err != nil {
		t.Fatalf("Open after Kill: %v", err)
	}
	m2.Close()
}

func TestLockDir(t *testing.T) {
	dir := t.TempDir()
	l1, err := LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LockDir(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second LockDir: got %v, want ErrLocked", err)
	}
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := l1.Release(); err != nil {
		t.Fatal("Release must be idempotent")
	}
	l2, err := LockDir(dir)
	if err != nil {
		t.Fatalf("LockDir after Release: %v", err)
	}
	l2.Release()
	var nilLock *DirLock
	if err := nilLock.Release(); err != nil {
		t.Fatal("Release on nil must be a no-op")
	}
}

// TestBeginCommitCompaction drives the two-phase path directly: the segment
// switch happens at Begin, appends land in the new generation, and the
// snapshot committed later anchors recovery.
func TestBeginCommitCompaction(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	for i := 0; i < 10; i++ {
		op := Op{Kind: KindSet, Key: fmt.Sprintf("k%d", i), Value: []byte("v"), Size: 10, Cost: 1}
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		if err := st.apply(op); err != nil {
			t.Fatal(err)
		}
	}
	c, err := m.BeginCompact()
	if err != nil {
		t.Fatal(err)
	}
	// State captured at Begin time; mutations after Begin go to the new
	// segment and must survive alongside the snapshot.
	snap := newMapStore()
	for k, op := range st.m {
		snap.m[k] = op
	}
	post := Op{Kind: KindSet, Key: "post", Value: []byte("p"), Size: 10, Cost: 2}
	if err := m.Append(post); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	if _, err := m.BeginCompact(); !errors.Is(err, errCompacting) {
		t.Fatalf("overlapping BeginCompact: got %v", err)
	}
	if err := c.Commit(snap.emit); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(snap.emit); err == nil {
		t.Fatal("double Commit must fail")
	}
	info := m.Info()
	if info.Generation != 2 || info.SnapshotGen != 2 || info.Compactions != 1 {
		t.Fatalf("post-commit info: %+v", info)
	}
	if _, err := os.Stat(filepath.Join(dir, "aof-00000001.log")); !os.IsNotExist(err) {
		t.Fatal("retired segment survived commit")
	}
	m.Kill()

	st2 := newMapStore()
	m2, stats := openTest(t, dir, Options{}, st2)
	defer m2.Close()
	if stats.SnapshotOps != 10 || stats.ReplayedOps != 1 {
		t.Fatalf("recovery after two-phase compaction: %+v", stats)
	}
	if _, ok := st2.m["post"]; !ok || len(st2.m) != 11 {
		t.Fatalf("recovered %d keys (post present: %v), want 11 with post", len(st2.m), ok)
	}
}

// TestRecoverySurvivesSegmentSwitchWithoutSnapshot simulates a crash between
// BeginCompact and Commit: the journal is on generation N with the newest
// snapshot at N-1 (or absent), and recovery must stitch both segments
// together — and must NOT garbage-collect the pre-switch segment.
func TestRecoverySurvivesSegmentSwitchWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	if err := m.Append(Op{Kind: KindSet, Key: "old", Value: []byte("v"), Size: 10, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginCompact(); err != nil {
		t.Fatal(err)
	}
	// Crash before Commit: no snapshot for generation 2.
	if err := m.Append(Op{Kind: KindSet, Key: "new", Value: []byte("v"), Size: 10, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	m.Kill()

	st2 := newMapStore()
	m2, stats := openTest(t, dir, Options{}, st2)
	if stats.ReplayedOps != 2 || len(st2.m) != 2 {
		t.Fatalf("stitched recovery: %+v with %d keys", stats, len(st2.m))
	}
	// Both segments must still be on disk until a snapshot anchors gen 2.
	for _, name := range []string{"aof-00000001.log", "aof-00000002.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("load-bearing segment %s was garbage-collected: %v", name, err)
		}
	}
	// A crash loop must not lose data either: kill and recover once more.
	m2.Kill()
	st3 := newMapStore()
	m3, _ := openTest(t, dir, Options{}, st3)
	defer m3.Close()
	if len(st3.m) != 2 {
		t.Fatalf("second stitched recovery lost keys: %d, want 2", len(st3.m))
	}
}

// TestRecoverDir covers the read-only migration path: state is readable
// while leaving every file byte-for-byte untouched, even a torn tail.
func TestRecoverDir(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	for i := 0; i < 5; i++ {
		if err := m.Append(Op{Kind: KindSet, Key: fmt.Sprintf("k%d", i), Value: []byte("v"), Size: 10, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record.
	path := filepath.Join(dir, "aof-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := newMapStore()
	stats, err := RecoverDir(dir, nil, st2.apply)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplayedOps != 4 || stats.TruncatedBytes == 0 || len(st2.m) != 4 {
		t.Fatalf("read-only recovery: %+v with %d keys", stats, len(st2.m))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data)-2 {
		t.Fatal("RecoverDir modified the AOF file")
	}
}
