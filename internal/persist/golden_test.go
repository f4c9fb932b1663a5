package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The golden fixtures under testdata/ were written by the version-1 codec
// (before snapshot format v2 added priority offsets and position records)
// and are checked in byte-for-byte. They pin the compatibility contract:
//
//   - v2 code reads v1 files bit-for-bit — every value, flag, expiry and
//     cost decodes exactly as the v1 reader produced it;
//   - v1 readers refuse v2 files with a clear version error (simulated by
//     running today's header check with a v1 ceiling);
//   - writers always emit v2.
//
// Regenerating the fixtures under a new codec would defeat the point; if
// either file ever needs to change, the format has broken compatibility.

// goldenSnapOps is the exact content of testdata/snap-v1.camp.
var goldenSnapOps = []Op{
	{Kind: KindSet, Key: "alpha", Value: []byte("first-value"), Flags: 7, Expires: 1750000000000000000, Size: 72, Cost: 1234},
	{Kind: KindSet, Key: "beta", Value: nil, Flags: 0, Expires: 0, Size: 60, Cost: 1},
	{Kind: KindSet, Key: "gamma", Value: []byte{0x00, 0xff, 0x10, 0x20}, Flags: 4294967295, Expires: 0, Size: 65, Cost: 999999},
}

// goldenAOFOps is the exact op sequence of testdata/aof-v1.log.
var goldenAOFOps = []Op{
	{Kind: KindSet, Key: "alpha", Value: []byte("first-value"), Flags: 7, Expires: 1750000000000000000, Size: 72, Cost: 1234},
	{Kind: KindTouch, Key: "alpha", Expires: 1760000000000000000},
	{Kind: KindSet, Key: "beta", Value: []byte("b"), Size: 61, Cost: 5},
	{Kind: KindDelete, Key: "beta"},
	{Kind: KindFlush},
	{Kind: KindSet, Key: "gamma", Value: []byte{0x00, 0xff}, Flags: 42, Size: 63, Cost: 77},
}

func opsEqual(t *testing.T, what string, got, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d ops, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.Key != w.Key || !bytes.Equal(g.Value, w.Value) ||
			g.Flags != w.Flags || g.Expires != w.Expires || g.Size != w.Size ||
			g.Cost != w.Cost || g.Priority != w.Priority || g.Class != w.Class ||
			g.Pos != w.Pos || g.Scale != w.Scale {
			t.Fatalf("%s: op %d:\n got %+v\nwant %+v", what, i, g, w)
		}
	}
}

// TestGoldenV1SnapshotReadsBitForBit pins that the v2 reader decodes a
// checked-in v1 snapshot to exactly the ops the v1 writer serialized — and
// that the bytes themselves are what the v1 codec produced (the header is
// version 1, and re-encoding the decoded ops reproduces the file).
func TestGoldenV1SnapshotReadsBitForBit(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snap-v1.camp"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != 1 {
		t.Fatalf("fixture header version = %d, want 1 (fixture must stay v1)", v)
	}
	var got []Op
	n, err := ReadSnapshot(bytes.NewReader(data), func(op Op) error {
		got = append(got, op)
		return nil
	})
	if err != nil {
		t.Fatalf("v2 reader refused the v1 snapshot: %v", err)
	}
	if n != len(goldenSnapOps) {
		t.Fatalf("read %d records, want %d", n, len(goldenSnapOps))
	}
	opsEqual(t, "snapshot", got, goldenSnapOps)

	// Bit-for-bit: the v1 record encoding is frozen, so re-encoding the
	// decoded ops must reproduce the fixture's record bytes exactly.
	want := appendFileHeader(nil, snapshotMagic, 1)
	for _, op := range got {
		want = AppendRecord(want, op)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("re-encoded v1 snapshot differs from the checked-in bytes")
	}
}

// TestGoldenV1JournalReplays pins that a checked-in v1 AOF segment replays
// to exactly the op sequence the v1 code journaled, through the same
// recovery entry point the server uses.
func TestGoldenV1JournalReplays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "aof-v1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != 1 {
		t.Fatalf("fixture header version = %d, want 1 (fixture must stay v1)", v)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, aofName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Op
	stats, err := RecoverDir(dir, t.Logf, func(op Op) error {
		got = append(got, op)
		return nil
	})
	if err != nil {
		t.Fatalf("v2 recovery refused the v1 journal: %v", err)
	}
	if stats.TruncatedBytes != 0 {
		t.Fatalf("recovery truncated %d bytes of an intact fixture", stats.TruncatedBytes)
	}
	opsEqual(t, "aof", got, goldenAOFOps)
}

// TestV1ReaderRefusesV2 pins the forward-compatibility contract from the
// other side: a reader whose ceiling is version 1 — today's checkFileHeader
// run exactly as the v1 binary ran it — must refuse a v2 snapshot with
// ErrVersion, and today's reader must likewise refuse files from a future
// version rather than misparse them.
func TestV1ReaderRefusesV2(t *testing.T) {
	// A real v2 snapshot, as today's writer emits it.
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(Op{Kind: KindSetPrio, Key: "k", Value: []byte("v"), Size: 10, Cost: 3, Priority: 7, Class: 12}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkFileHeader(buf.Bytes(), snapshotMagic, 1, "snapshot"); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1-ceiling header check accepted a v2 snapshot: %v", err)
	}

	// And the same guard protects today's reader from tomorrow's format.
	future := appendFileHeader(nil, snapshotMagic, SnapshotVersion+1)
	future = AppendRecord(future, Op{Kind: KindSet, Key: "k", Value: []byte("v"), Size: 10, Cost: 1})
	if _, err := ReadSnapshot(bytes.NewReader(future), func(Op) error { return nil }); !errors.Is(err, ErrVersion) {
		t.Fatalf("reader accepted a version-%d snapshot: %v", SnapshotVersion+1, err)
	}
}

// TestV1ReaderSemanticsRejectV2Kinds pins the strict v1 backward-read: a
// file carrying a v1 header must contain only v1 record kinds — a v2 record
// smuggled under a v1 header is corruption, not a silent downgrade.
func TestV1ReaderSemanticsRejectV2Kinds(t *testing.T) {
	data := appendFileHeader(nil, snapshotMagic, 1)
	data = AppendRecord(data, Op{Kind: KindSetPrio, Key: "k", Value: []byte("v"), Size: 10, Cost: 1, Priority: 2, Class: 4})
	if _, err := ReadSnapshot(bytes.NewReader(data), func(Op) error { return nil }); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("v1 snapshot with a v2 record kind read as: %v, want ErrCorruptRecord", err)
	}
	data = appendFileHeader(nil, snapshotMagic, 1)
	data = AppendRecord(data, Op{Kind: KindPosition, Pos: Position{RunID: 1, Gen: 1, Off: SegmentHeaderLen}})
	if _, err := ReadSnapshot(bytes.NewReader(data), func(Op) error { return nil }); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("v1 snapshot with a position record read as: %v, want ErrCorruptRecord", err)
	}
}

// TestWritersAlwaysEmitV2 pins that every snapshot writer — the streaming
// writer, the atomic file writer, and a Manager compaction — stamps the
// current (v2) version, and that v2 content (priorities, positions) round-
// trips through the reader exactly.
func TestWritersAlwaysEmitV2(t *testing.T) {
	ops := []Op{
		{Kind: KindScale, Scale: 99},
		{Kind: KindSetPrio, Key: "a", Value: []byte("va"), Flags: 1, Size: 20, Cost: 9, Priority: 41, Class: 50},
		{Kind: KindSet, Key: "b", Value: []byte("vb"), Size: 21, Cost: 2},
		{Kind: KindPosition, Pos: Position{RunID: 77, Gen: 3, Off: 1234}},
	}
	emit := func(write func(Op) error) error {
		for _, op := range ops {
			if err := write(op); err != nil {
				return err
			}
		}
		return nil
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "snap.camp")
	if _, err := WriteSnapshotFile(path, emit); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != 2 || SnapshotVersion != 2 {
		t.Fatalf("snapshot header version = %d, want 2", v)
	}
	var got []Op
	if _, err := ReadSnapshot(bytes.NewReader(data), func(op Op) error {
		got = append(got, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	opsEqual(t, "v2 round trip", got, ops)

	// A Manager compaction writes the same format.
	mdir := t.TempDir()
	m, _, err := Open(Options{Dir: mdir, Fsync: FsyncNo}, func(Op) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Compact(emit); err != nil {
		t.Fatal(err)
	}
	snaps, _, err := scanDir(defaultFS, mdir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no compaction snapshot written: %v %v", snaps, err)
	}
	data, err = os.ReadFile(m.snapPath(snaps[len(snaps)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != SnapshotVersion {
		t.Fatalf("compaction snapshot version = %d, want %d", v, SnapshotVersion)
	}

	// New AOF segments are stamped v2 as well.
	_, aofs, err := scanDir(defaultFS, mdir)
	if err != nil || len(aofs) == 0 {
		t.Fatalf("no aof segment: %v %v", aofs, err)
	}
	data, err = os.ReadFile(m.aofPath(aofs[len(aofs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != 2 || AOFVersion != 2 {
		t.Fatalf("aof header version = %d, want 2", v)
	}
}

// TestJournalCarriesPositionRecords pins the durable-position journal path
// end to end at the persist layer: position records append (batched with
// their ops), survive recovery, and replay in order.
func TestJournalCarriesPositionRecords(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways}, func(Op) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	pos1 := Position{RunID: 9, Gen: 2, Off: 100}
	pos2 := Position{RunID: 9, Gen: 2, Off: 230}
	if err := m.AppendBatch([]Op{
		{Kind: KindSet, Key: "k1", Value: []byte("v1"), Size: 10, Cost: 1},
		{Kind: KindPosition, Pos: pos1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBatch([]Op{
		{Kind: KindSet, Key: "k2", Value: []byte("v2"), Size: 10, Cost: 2},
		{Kind: KindPosition, Pos: pos2},
	}); err != nil {
		t.Fatal(err)
	}
	flushTest(t, m)
	m.Kill()

	var got []Op
	m2, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways}, func(op Op) error {
		got = append(got, op)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	want := []Op{
		{Kind: KindSet, Key: "k1", Value: []byte("v1"), Size: 10, Cost: 1},
		{Kind: KindPosition, Pos: pos1},
		{Kind: KindSet, Key: "k2", Value: []byte("v2"), Size: 10, Cost: 2},
		{Kind: KindPosition, Pos: pos2},
	}
	opsEqual(t, "recovered journal", got, want)
}
