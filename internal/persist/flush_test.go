package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"camp/internal/fault"
)

func segmentSize(t *testing.T, dir string, gen uint64) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, aofName(gen)))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestFlushIsTheWrite: an Append only buffers. The segment file does not grow
// and a blocked TailReader does not wake until Flush, while Info's AOFSize —
// which callers read straight after Append — already counts the buffered
// bytes.
func TestFlushIsTheWrite(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, Options{Fsync: FsyncNo}, newMapStore())
	defer m.Close()
	tr, err := m.TailFrom(1, SegmentHeaderLen)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	op := setOp("k", "v")
	rec := int64(len(AppendRecord(nil, op)))
	woke := make(chan TailEvent, 1)
	go func() {
		ev, _ := tr.Next(5*time.Second, nil)
		woke <- ev
	}()
	time.Sleep(20 * time.Millisecond) // let the tail block on the idle journal
	if err := m.Append(op); err != nil {
		t.Fatal(err)
	}
	if got := m.Info().AOFSize; got != SegmentHeaderLen+rec {
		t.Fatalf("AOFSize after a buffered append = %d, want header %d + record %d", got, SegmentHeaderLen, rec)
	}
	if got := segmentSize(t, dir, 1); got != SegmentHeaderLen {
		t.Fatalf("segment file grew to %d bytes before Flush", got)
	}
	select {
	case ev := <-woke:
		t.Fatalf("tail woke before Flush: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	flushTest(t, m)
	if got := segmentSize(t, dir, 1); got != SegmentHeaderLen+rec {
		t.Fatalf("segment file holds %d bytes after Flush, want %d", got, SegmentHeaderLen+rec)
	}
	if got := m.Info().AOFSize; got != SegmentHeaderLen+rec {
		t.Fatalf("AOFSize moved across Flush: %d", got)
	}
	select {
	case ev := <-woke:
		if ev.Off != SegmentHeaderLen+rec || ev.Record == nil {
			t.Fatalf("woken tail read %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail never woke on Flush")
	}
}

// TestFlushOneWriteOneSync counts through the injector: a rule that fails the
// second journal write (and one for the second sync) stays silent across 64
// appends and their Flush, and fires on the very next flush — so the 64
// records went down in exactly one Write and, under FsyncAlways, one Sync.
func TestFlushOneWriteOneSync(t *testing.T) {
	for _, fsync := range []string{FsyncAlways, FsyncNo} {
		t.Run(fsync, func(t *testing.T) {
			inj := fault.NewInjector(nil, 1)
			m, _, err := Open(Options{Dir: t.TempDir(), Fsync: fsync, FS: inj}, func(Op) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			op := fault.OpWrite
			if fsync == FsyncAlways {
				op = fault.OpSync // a sync follows every write, so the second sync is the second flush
			}
			inj.Fail(fault.Rule{Op: op, PathContains: "aof-", After: 1})
			for i := 0; i < 64; i++ {
				if err := m.Append(faultSetOp(i)); err != nil {
					t.Fatal(err)
				}
			}
			flushTest(t, m)
			flushTest(t, m) // nothing buffered: no write, no sync
			if n := inj.Injected(); n != 0 {
				t.Fatalf("64 appends and a flush made more than one %s (%d injected)", op, n)
			}
			if err := m.Append(faultSetOp(64)); err != nil {
				t.Fatal(err)
			}
			if err := m.Flush(); !errors.Is(err, fault.ErrIO) {
				t.Fatalf("the second flush's %s did not happen: err = %v", op, err)
			}
		})
	}
}

// tearFS tears the one journal write it is armed for: the first at bytes
// reach the file and the write fails, as a crash mid-write leaves it.
type tearFS struct {
	fault.FS
	at    int
	armed bool
}

type tearFile struct {
	fault.File
	fs *tearFS
}

func (fs *tearFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tearFile{f, fs}, nil
}

func (f tearFile) Write(p []byte) (int, error) {
	if !f.fs.armed {
		return f.File.Write(p)
	}
	f.fs.armed = false
	n, _ := f.File.Write(p[:f.fs.at])
	return n, fault.ErrIO
}

// TestTornFlushKeepsPositionBehindItsOp tears one flushed buffer of op+position
// pairs at every byte offset. Whatever prefix the tear leaves, recovery must
// replay whole records only, in order, and never a position record without the
// op it accounts for in front of it (PR 5's invariant: the pair is adjacent in
// one buffer, op first).
func TestTornFlushKeepsPositionBehindItsOp(t *testing.T) {
	const pairs = 4
	var ops []Op
	var size int
	for i := 0; i < pairs; i++ {
		op := faultSetOp(i)
		pos := Op{Kind: KindPosition, Pos: Position{RunID: 7, Gen: 3, Off: int64(100 * (i + 1))}}
		ops = append(ops, op, pos)
		size += len(AppendRecord(nil, op)) + len(AppendRecord(nil, pos))
	}
	for at := 0; at <= size; at++ {
		dir := t.TempDir()
		fs := &tearFS{FS: fault.OS(), at: at}
		m, _, err := Open(Options{Dir: dir, Fsync: FsyncNo, FS: fs}, func(Op) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ops); i += 2 {
			if err := m.AppendBatch(ops[i : i+2]); err != nil {
				t.Fatal(err)
			}
		}
		fs.armed = true
		if err := m.Flush(); !errors.Is(err, fault.ErrIO) {
			t.Fatalf("tear at %d: Flush err = %v", at, err)
		}
		m.Kill()

		var got []Op
		m2, _, err := Open(Options{Dir: dir}, func(op Op) error {
			got = append(got, op)
			return nil
		})
		if err != nil {
			t.Fatalf("tear at %d: recovery refused: %v", at, err)
		}
		m2.Close()
		if len(got) > len(ops) {
			t.Fatalf("tear at %d: recovered %d ops from %d", at, len(got), len(ops))
		}
		opsEqual(t, fmt.Sprintf("tear at %d", at), got, ops[:len(got)])
		if at == size && len(got) != len(ops) {
			t.Fatalf("an untorn write recovered %d of %d ops", len(got), len(ops))
		}
	}
}

// TestAppendBatchNotSplitAtFlushMark: the buffer passing flushAt is noticed
// only once a call's last record is encoded, so a batch straddling the mark
// goes down whole, in the same single write as everything buffered before it.
func TestAppendBatchNotSplitAtFlushMark(t *testing.T) {
	inj := fault.NewInjector(nil, 1)
	dir := t.TempDir()
	m, _, err := Open(Options{Dir: dir, Fsync: FsyncNo, FS: inj}, func(Op) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inj.Fail(fault.Rule{Op: fault.OpWrite, PathContains: "aof-", After: 1}) // a second write would fail
	filler := Op{Kind: KindSet, Key: "filler", Value: make([]byte, flushAt-200)}
	if err := m.Append(filler); err != nil {
		t.Fatal(err)
	}
	if got := segmentSize(t, dir, 1); got != SegmentHeaderLen {
		t.Fatalf("a buffer under the mark was written (%d bytes in the file)", got)
	}
	batch := []Op{
		{Kind: KindSet, Key: "straddler", Value: make([]byte, 400)},
		{Kind: KindPosition, Pos: Position{RunID: 1, Gen: 1, Off: 64}},
	}
	if err := m.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch across the mark: %v", err)
	}
	if file, all := segmentSize(t, dir, 1), m.Info().AOFSize; file != all || file <= SegmentHeaderLen+flushAt {
		t.Fatalf("after the straddling batch the file holds %d of %d bytes", file, all)
	}
	if n := inj.Injected(); n != 0 {
		t.Fatalf("the straddling batch took more than one write (%d injected)", n)
	}
}

// TestFlushAfterDetachAndClose: a Flush that cannot vouch for what was
// appended says so, and writes nothing.
func TestFlushAfterDetachAndClose(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, Options{Fsync: FsyncNo}, newMapStore())
	if err := m.Append(setOp("lost", "v")); err != nil {
		t.Fatal(err)
	}
	m.Detach() // drops the handle and the buffered record
	if err := m.Flush(); err == nil {
		t.Fatal("Flush on a detached journal reported success")
	}
	if got := segmentSize(t, dir, 1); got != SegmentHeaderLen {
		t.Fatalf("Flush after Detach wrote: segment is %d bytes", got)
	}
	if got := m.Info().AOFSize; got != 0 {
		t.Fatalf("detached manager still counts %d journal bytes", got)
	}
	// The healing compaction reattaches; flushing works again.
	if err := m.Compact(func(func(Op) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(setOp("kept", "v")); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	size := segmentSize(t, dir, 2)
	if err := m.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: err = %v, want ErrClosed", err)
	}
	if got := segmentSize(t, dir, 2); got != size {
		t.Fatalf("Flush after Close wrote: segment grew %d -> %d", size, got)
	}
}

// TestFailedFlushResumesWhereItStopped: the bytes a failed write did not
// deliver stay buffered, so the next flush completes the torn record instead
// of appending behind it — the journal never holds a hole.
func TestFailedFlushResumesWhereItStopped(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 3)
	m, _, err := Open(Options{Dir: dir, Fsync: FsyncNo, FS: inj}, func(Op) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var want []Op
	for i := 0; i < 8; i++ {
		want = append(want, faultSetOp(i))
		if err := m.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	inj.Fail(fault.Rule{Op: fault.OpWrite, TornWrite: true, Count: 1})
	if err := m.Flush(); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("torn flush err = %v", err)
	}
	flushTest(t, m) // the disk is back: the remainder goes down
	m.Kill()

	var got []Op
	m2, stats, err := Open(Options{Dir: dir}, func(op Op) error {
		got = append(got, op)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if stats.TruncatedBytes != 0 {
		t.Fatalf("recovery truncated %d bytes of a journal that should be whole", stats.TruncatedBytes)
	}
	opsEqual(t, "journal after a resumed flush", got, want)
}
