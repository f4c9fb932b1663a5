package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mapStore is a trivial Op sink standing in for a real store.
type mapStore struct {
	m map[string]Op
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string]Op)} }

func (s *mapStore) apply(op Op) error {
	switch op.Kind {
	case KindSet:
		s.m[op.Key] = op
	case KindDelete:
		delete(s.m, op.Key)
	case KindTouch:
		it, ok := s.m[op.Key]
		if ok {
			it.Expires = op.Expires
			s.m[op.Key] = it
		}
	case KindFlush:
		clear(s.m)
	default:
		return fmt.Errorf("unknown kind %d", op.Kind)
	}
	return nil
}

func (s *mapStore) emit(write func(Op) error) error {
	for _, op := range s.m {
		if err := write(op); err != nil {
			return err
		}
	}
	return nil
}

func openTest(t *testing.T, dir string, opts Options, st *mapStore) (*Manager, RecoverStats) {
	t.Helper()
	opts.Dir = dir
	m, stats, err := Open(opts, st.apply)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

// flushTest is the acknowledgement point of a test's mutations: a server
// flushes here, before the reply leaves, and from here on a Kill must lose
// none of what was appended.
func flushTest(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerAppendRecover(t *testing.T) {
	for _, fsync := range []string{FsyncAlways, FsyncEverySec, FsyncNo} {
		t.Run(fsync, func(t *testing.T) {
			dir := t.TempDir()
			st := newMapStore()
			m, stats := openTest(t, dir, Options{Fsync: fsync}, st)
			if stats.SnapshotOps != 0 || stats.ReplayedOps != 0 || stats.Generation != 1 {
				t.Fatalf("fresh dir recovered %+v", stats)
			}
			ops := []Op{
				{Kind: KindSet, Key: "a", Value: []byte("1"), Flags: 3, Size: 10, Cost: 500},
				{Kind: KindSet, Key: "b", Value: []byte("2"), Size: 11, Cost: 9},
				{Kind: KindTouch, Key: "a", Expires: 42},
				{Kind: KindDelete, Key: "b"},
			}
			for _, op := range ops {
				if err := m.Append(op); err != nil {
					t.Fatal(err)
				}
				if err := st.apply(op); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			st2 := newMapStore()
			m2, stats := openTest(t, dir, Options{Fsync: fsync}, st2)
			defer m2.Close()
			if stats.ReplayedOps != len(ops) {
				t.Fatalf("replayed %d ops, want %d", stats.ReplayedOps, len(ops))
			}
			if len(st2.m) != 1 {
				t.Fatalf("recovered %d keys, want 1", len(st2.m))
			}
			got := st2.m["a"]
			if string(got.Value) != "1" || got.Flags != 3 || got.Cost != 500 || got.Expires != 42 {
				t.Fatalf("recovered op mismatch: %+v", got)
			}
		})
	}
}

// TestManagerHardStopFsyncAlways mimics a crash: the manager is abandoned
// without Close, and with FsyncAlways every acknowledged append must still
// be recoverable.
func TestManagerHardStopFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	for i := 0; i < 100; i++ {
		op := Op{Kind: KindSet, Key: fmt.Sprintf("k%03d", i), Value: []byte("v"), Size: 10, Cost: int64(i)}
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	flushTest(t, m)
	// No Close: Kill drops the journal without any final sync, as in a
	// SIGKILL (it also releases the dir flock, which a real process death
	// would release implicitly — within one test process it must be
	// explicit).
	m.Kill()
	st2 := newMapStore()
	m2, stats := openTest(t, dir, Options{}, st2)
	defer m2.Close()
	if stats.ReplayedOps != 100 || len(st2.m) != 100 {
		t.Fatalf("replayed %d ops into %d keys, want 100/100", stats.ReplayedOps, len(st2.m))
	}
}

// TestManagerTornTail is the acceptance case: a torn final AOF record is
// truncated with a warning and the intact prefix is served.
func TestManagerTornTail(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	for i := 0; i < 10; i++ {
		if err := m.Append(Op{Kind: KindSet, Key: fmt.Sprintf("k%d", i), Value: []byte("v"), Size: 10, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop a few bytes off the segment.
	path := filepath.Join(dir, "aof-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	var warned []string
	st2 := newMapStore()
	m2, stats := openTest(t, dir, Options{
		Logf: func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) },
	}, st2)
	if stats.ReplayedOps != 9 || stats.TruncatedBytes == 0 {
		t.Fatalf("torn tail: replayed %d ops, truncated %d bytes", stats.ReplayedOps, stats.TruncatedBytes)
	}
	if len(st2.m) != 9 {
		t.Fatalf("recovered %d keys, want 9", len(st2.m))
	}
	if len(warned) == 0 || !strings.Contains(warned[0], "torn") {
		t.Fatalf("expected a torn-tail warning, got %q", warned)
	}
	// The manager must keep serving: append after truncation, then a third
	// recovery sees a clean log.
	if err := m2.Append(Op{Kind: KindSet, Key: "post", Value: []byte("v"), Size: 10, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := newMapStore()
	m3, stats := openTest(t, dir, Options{}, st3)
	defer m3.Close()
	if stats.TruncatedBytes != 0 || stats.ReplayedOps != 10 {
		t.Fatalf("post-truncation recovery: %+v", stats)
	}
}

// TestManagerRefusesMidLogCorruption: a CRC failure that is not a torn tail
// cannot be silently skipped.
func TestManagerRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	for i := 0; i < 5; i++ {
		if err := m.Append(Op{Kind: KindSet, Key: fmt.Sprintf("key-%d", i), Value: []byte("value"), Size: 20, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "aof-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[fileHeaderLen+recordHeaderLen+2] ^= 0xff // corrupt the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir}, newMapStore().apply)
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("mid-log corruption: got %v, want ErrCorruptRecord", err)
	}
}

func TestManagerRefusesNewerAOFVersion(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	if err := m.Append(Op{Kind: KindSet, Key: "a", Value: []byte("v"), Size: 10, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "aof-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], AOFVersion+1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}, newMapStore().apply); !errors.Is(err, ErrVersion) {
		t.Fatalf("newer aof version: got %v, want ErrVersion", err)
	}
}

// TestManagerCompaction checks snapshot-then-truncate: after Compact the old
// generation's files are gone, the AOF restarts near-empty, and recovery
// comes from the snapshot plus the new journal tail.
func TestManagerCompaction(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways, AOFLimit: 1}, st)
	for i := 0; i < 20; i++ {
		op := Op{Kind: KindSet, Key: fmt.Sprintf("k%02d", i), Value: []byte("vvvv"), Size: 15, Cost: int64(100 + i)}
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		if err := st.apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if !m.NeedsCompaction() {
		t.Fatal("AOF over a 1-byte limit should need compaction")
	}
	if err := m.Compact(st.emit); err != nil {
		t.Fatal(err)
	}
	if m.Info().Generation != 2 {
		t.Fatalf("generation %d after compaction, want 2", m.Info().Generation)
	}
	for _, stale := range []string{"snap-00000001.camp", "aof-00000001.log"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Fatalf("stale file %s survived compaction", stale)
		}
	}
	// Journal one post-compaction mutation, then recover from scratch.
	post := Op{Kind: KindDelete, Key: "k00"}
	if err := m.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := newMapStore()
	m2, stats := openTest(t, dir, Options{}, st2)
	defer m2.Close()
	if stats.SnapshotOps != 20 || stats.ReplayedOps != 1 || stats.Generation != 2 {
		t.Fatalf("post-compaction recovery: %+v", stats)
	}
	if len(st2.m) != 19 {
		t.Fatalf("recovered %d keys, want 19", len(st2.m))
	}
	if got := st2.m["k05"].Cost; got != 105 {
		t.Fatalf("snapshot lost the learned cost: got %d want 105", got)
	}
}

// TestManagerFlushRecord journals a KindFlush and checks replay empties the
// store before applying later ops.
func TestManagerFlushRecord(t *testing.T) {
	dir := t.TempDir()
	st := newMapStore()
	m, _ := openTest(t, dir, Options{Fsync: FsyncAlways}, st)
	for _, op := range []Op{
		{Kind: KindSet, Key: "a", Value: []byte("1"), Size: 10, Cost: 1},
		{Kind: KindSet, Key: "b", Value: []byte("2"), Size: 10, Cost: 1},
		{Kind: KindFlush},
		{Kind: KindSet, Key: "c", Value: []byte("3"), Size: 10, Cost: 1},
	} {
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	flushTest(t, m)
	m.Kill() // crash without syncing

	st2 := newMapStore()
	m2, stats := openTest(t, dir, Options{}, st2)
	defer m2.Close()
	if stats.ReplayedOps != 4 {
		t.Fatalf("replayed %d ops, want 4", stats.ReplayedOps)
	}
	if len(st2.m) != 1 {
		t.Fatalf("recovered %d keys after flush, want 1", len(st2.m))
	}
	if _, ok := st2.m["c"]; !ok {
		t.Fatal("post-flush set lost")
	}
}

func TestManagerBadOptions(t *testing.T) {
	if _, _, err := Open(Options{}, func(Op) error { return nil }); err == nil {
		t.Fatal("missing Dir must fail")
	}
	if _, _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}, func(Op) error { return nil }); err == nil {
		t.Fatal("unknown fsync policy must fail")
	}
}

func TestManagerAppendAfterClose(t *testing.T) {
	m, _ := openTest(t, t.TempDir(), Options{}, newMapStore())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(Op{Kind: KindSet, Key: "a", Size: 1, Cost: 1}); err == nil {
		t.Fatal("append after close must fail")
	}
	if err := m.Compact(func(func(Op) error) error { return nil }); err == nil {
		t.Fatal("compact after close must fail")
	}
}
