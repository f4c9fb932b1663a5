package persist

import (
	"errors"
	"fmt"
	"testing"

	"camp/internal/fault"
)

func faultSetOp(i int) Op {
	return Op{Kind: KindSet, Key: fmt.Sprintf("k%03d", i), Value: []byte(fmt.Sprintf("v%03d", i))}
}

func openWithFS(t *testing.T, dir string, fs fault.FS) (*Manager, map[string]string) {
	t.Helper()
	got := make(map[string]string)
	m, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways, FS: fs}, func(op Op) error {
		switch op.Kind {
		case KindSet, KindSetPrio:
			got[op.Key] = string(op.Value)
		case KindDelete:
			delete(got, op.Key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, got
}

// ENOSPC mid-AppendBatch with a torn short-write: the acked prefix must
// survive recovery, the torn tail must be truncated, and the un-acked batch
// must be gone — exactly the contract a caller retrying after ENOSPC needs.
func TestENOSPCMidAppendBatchRecoverable(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 7)
	m, _ := openWithFS(t, dir, inj)

	acked := make(map[string]string)
	for i := 0; i < 10; i++ {
		op := faultSetOp(i)
		if err := m.Append(op); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		flushTest(t, m)
		acked[op.Key] = string(op.Value)
	}

	// The disk fills mid-batch, tearing the write.
	inj.Fail(fault.Rule{Op: fault.OpWrite, Err: fault.ErrNoSpace, TornWrite: true})
	batch := make([]Op, 50)
	for i := range batch {
		batch[i] = faultSetOp(100 + i)
	}
	// The batch is only buffered; the write fails where its ack would be.
	err := m.AppendBatch(batch)
	if err == nil {
		err = m.Flush()
	}
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("AppendBatch+Flush err = %v, want ENOSPC", err)
	}
	if got := m.Info().AppendErrors; got == 0 {
		t.Fatal("append error not counted")
	}
	inj.Heal()
	m.Kill() // crash: recovery must cope with whatever the torn write left

	m2, got := openWithFS(t, dir, fault.OS())
	defer m2.Close()
	// Every acked op survives. Un-acked batch records that landed before the
	// tear MAY replay (at-least-once on crash, same as kill -9) — but only
	// complete, CRC-clean ones, and only keys from that batch.
	for k, v := range acked {
		if got[k] != v {
			t.Fatalf("acked key %q = %q, want %q", k, got[k], v)
		}
	}
	inBatch := make(map[string]string, len(batch))
	for _, op := range batch {
		inBatch[op.Key] = string(op.Value)
	}
	for k, v := range got {
		if av, ok := acked[k]; ok && av == v {
			continue
		}
		if bv, ok := inBatch[k]; !ok || bv != v {
			t.Fatalf("recovered unexpected key %q = %q", k, v)
		}
	}
	// The journal is clean again: appends after recovery work.
	if err := m2.Append(faultSetOp(999)); err != nil {
		t.Fatal(err)
	}
}

// A failed fsync mid-compaction (settling the old segment) aborts cleanly:
// appends continue on the old segment and a later compaction succeeds.
func TestFsyncFailureBeginCompact(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 7)
	m, _ := openWithFS(t, dir, inj)
	defer m.Close()

	for i := 0; i < 5; i++ {
		if err := m.Append(faultSetOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	inj.Fail(fault.Rule{Op: fault.OpSync, PathContains: "aof-", Count: 1})
	if _, err := m.BeginCompact(); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("BeginCompact err = %v, want EIO", err)
	}
	// Not wedged: the journal still appends and the next compaction works.
	if err := m.Append(faultSetOp(5)); err != nil {
		t.Fatalf("append after failed compaction: %v", err)
	}
	emit := func(write func(Op) error) error {
		for i := 0; i < 6; i++ {
			if err := write(faultSetOp(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := m.Compact(emit); err != nil {
		t.Fatalf("compaction after heal: %v", err)
	}
}

// A failed snapshot write during Commit (temp-file sync dies) leaves the
// journal recoverable: the new segment is live, recovery replays from the
// previous snapshot across both segments, and compaction can be retried.
func TestSnapshotFailureMidCommitRecoverable(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 7)
	m, _ := openWithFS(t, dir, inj)

	acked := make(map[string]string)
	emit := func(write func(Op) error) error {
		for k, v := range acked {
			if err := write(Op{Kind: KindSet, Key: k, Value: []byte(v)}); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 8; i++ {
		op := faultSetOp(i)
		if err := m.Append(op); err != nil {
			t.Fatal(err)
		}
		flushTest(t, m)
		acked[op.Key] = string(op.Value)
	}

	inj.Fail(fault.Rule{Op: fault.OpSync, PathContains: ".tmp-", Count: 1})
	c, err := m.BeginCompact()
	if err != nil {
		t.Fatal(err)
	}
	// Mutations race the snapshot in real life; land one on the new segment.
	op := faultSetOp(8)
	if err := m.Append(op); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	acked[op.Key] = string(op.Value)
	if err := c.Commit(emit); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("Commit err = %v, want EIO", err)
	}

	// Retry works once the disk heals (rules are one-shot here).
	if err := m.Compact(emit); err != nil {
		t.Fatalf("compaction retry: %v", err)
	}
	m.Kill()

	m2, got := openWithFS(t, dir, fault.OS())
	defer m2.Close()
	if len(got) != len(acked) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(acked))
	}
	for k, v := range acked {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
}

// Detach drops the journal handle: appends fail fast, NeedsCompaction asks
// for the healing compaction, and a successful compaction reattaches.
func TestDetachThenHealViaCompaction(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 7)
	m, _ := openWithFS(t, dir, inj)
	defer m.Close()

	if err := m.Append(faultSetOp(0)); err != nil {
		t.Fatal(err)
	}
	m.Detach()
	if err := m.Append(faultSetOp(1)); err == nil {
		t.Fatal("append on detached journal succeeded")
	}
	if !m.NeedsCompaction() {
		t.Fatal("detached manager does not request compaction")
	}
	emit := func(write func(Op) error) error { return write(faultSetOp(0)) }
	if err := m.Compact(emit); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(faultSetOp(2)); err != nil {
		t.Fatalf("append after healing compaction: %v", err)
	}
}

// Probe goes through the injected FS: a faulted dir fails the probe, a healed
// one passes, and no probe residue is left behind.
func TestProbeReflectsDiskHealth(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 7)
	m, _ := openWithFS(t, dir, inj)
	defer m.Close()

	if err := m.Probe(); err != nil {
		t.Fatalf("healthy probe failed: %v", err)
	}
	inj.Fail(fault.Rule{Op: fault.OpSync, PathContains: ".probe"})
	if err := m.Probe(); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("faulted probe err = %v, want EIO", err)
	}
	inj.Heal()
	if err := m.Probe(); err != nil {
		t.Fatalf("post-heal probe failed: %v", err)
	}
	snaps, aofs, err := scanDir(defaultFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = snaps
	_ = aofs
	if _, err := defaultFS.ReadFile(dir + "/.probe"); err == nil {
		t.Fatal("probe file left behind")
	}
}
