package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzDecodeRecord ensures the record decoder never panics or over-allocates
// on corrupt input, and that accepted records re-encode byte-identically.
func FuzzDecodeRecord(f *testing.F) {
	for _, op := range []Op{
		{Kind: KindSet, Key: "user:1", Value: []byte("payload"), Flags: 9, Expires: 1700000000, Size: 70, Cost: 1234},
		{Kind: KindSet, Key: "k", Size: 57, Cost: 1},
		{Kind: KindDelete, Key: "gone"},
		{Kind: KindTouch, Key: "ttl", Expires: 42},
		{Kind: KindFlush},
		{Kind: KindFlush, Key: "acme"},
		{Kind: KindSetPrio, Key: "prio", Value: []byte("p"), Size: 60, Cost: 40, Priority: 12, Class: 30},
		{Kind: KindPosition, Pos: Position{RunID: 3, Gen: 2, Off: 150}},
		{Kind: KindScale, Scale: 81},
		{Kind: KindTenant, Key: "acme", Reserve: 4096},
	} {
		f.Add(AppendRecord(nil, op))
	}
	valid := AppendRecord(nil, Op{Kind: KindSet, Key: "seed", Value: []byte("v"), Size: 10, Cost: 2})
	f.Add(valid[:len(valid)-1]) // torn tail
	f.Add(valid[:recordHeaderLen])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge length prefix
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, used, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrShortRecord) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", used, len(data))
		}
		switch op.Kind {
		case KindPosition, KindScale:
			if op.Key != "" {
				t.Fatalf("decoder accepted keyed op %+v", op)
			}
		case KindFlush:
			// Key optional: empty = global flush, named = tenant flush.
		default:
			if op.Key == "" {
				t.Fatalf("decoder accepted keyless op %+v", op)
			}
		}
		if op.Size < 0 || op.Cost < 0 || op.Reserve < 0 {
			t.Fatalf("decoder accepted invalid op %+v", op)
		}
		switch op.Kind {
		case KindSet, KindDelete, KindTouch, KindFlush, KindSetPrio, KindScale, KindTenant:
		case KindPosition:
			if op.Pos.RunID == 0 || op.Pos.Gen == 0 || op.Pos.Off < SegmentHeaderLen {
				t.Fatalf("decoder accepted invalid position %+v", op.Pos)
			}
		default:
			t.Fatalf("decoder accepted unknown kind %d", op.Kind)
		}
		// Round-trip: re-encoding must reproduce the accepted bytes.
		if got := AppendRecord(nil, op); !bytes.Equal(got, data[:used]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, data[:used])
		}
	})
}

// FuzzStreamFrames drives the replication stream decoder — the follower-side
// companion to FuzzDecodeRecord — over arbitrary bytes: it must reject
// malformed frames (bad kinds, oversized or corrupt records, zero
// generation switches, torn tails) with a classified error, never a panic,
// and every accepted record frame must carry a structurally valid op.
func FuzzStreamFrames(f *testing.F) {
	var valid bytes.Buffer
	sw := NewStreamWriter(bufio.NewWriter(&valid))
	sw.GenSwitch(1)
	sw.Record(AppendRecord(nil, Op{Kind: KindSet, Key: "user:1", Value: []byte("payload"), Flags: 9, Size: 70, Cost: 1234}))
	sw.Ping()
	sw.Record(AppendRecord(nil, Op{Kind: KindDelete, Key: "gone"}))
	sw.GenSwitch(7)
	sw.Flush()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])                           // torn mid-frame
	f.Add([]byte{FrameGen, 0, 0, 0, 0, 0, 0, 0, 0})                // generation-switch to 0
	f.Add([]byte{FrameRecord, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge record length
	f.Add([]byte{'Z'})                                             // unknown kind
	f.Add([]byte{FramePing, FramePing, FramePing})
	// 'S' was a skip frame (zero, 42 and negative deltas); it is an unknown
	// kind now, so none of these may decode.
	f.Add([]byte{'S', 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'S', 42, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'S', 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewStreamReader(bufio.NewReader(bytes.NewReader(data)))
		for {
			frame, err := sr.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					!errors.Is(err, ErrCorruptRecord) && !errors.Is(err, ErrShortRecord) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			switch frame.Kind {
			case FramePing:
			case FrameGen:
				if frame.Gen == 0 {
					t.Fatal("decoder accepted a generation-switch to 0")
				}
			case FrameRecord:
				op := frame.Op
				keyless := op.Kind == KindPosition || op.Kind == KindScale
				badKey := (keyless && op.Key != "") ||
					(!keyless && op.Kind != KindFlush && op.Key == "")
				if frame.Bytes <= 0 || badKey || op.Size < 0 || op.Cost < 0 {
					t.Fatalf("decoder accepted invalid record frame %+v", frame)
				}
			default:
				t.Fatalf("decoder returned unknown frame kind %q", frame.Kind)
			}
		}
	})
}

// FuzzDecodeSnapshotV2 drives the whole-snapshot reader — header check,
// version gating, record loop — over arbitrary bytes: corrupt input must
// surface as a classified error (never a panic), newer versions must be
// refused with ErrVersion, v1-headed files must never yield v2 record
// kinds, and every applied op must be structurally valid.
func FuzzDecodeSnapshotV2(f *testing.F) {
	snap := func(version uint32, ops ...Op) []byte {
		data := appendFileHeader(nil, snapshotMagic, version)
		for _, op := range ops {
			data = AppendRecord(data, op)
		}
		return data
	}
	f.Add(snap(1,
		Op{Kind: KindSet, Key: "a", Value: []byte("va"), Flags: 3, Size: 20, Cost: 7}))
	f.Add(snap(2,
		Op{Kind: KindScale, Scale: 44},
		Op{Kind: KindSetPrio, Key: "a", Value: []byte("va"), Size: 20, Cost: 7, Priority: 5, Class: 9},
		Op{Kind: KindSet, Key: "b", Value: []byte("vb"), Size: 21, Cost: 1},
		Op{Kind: KindPosition, Pos: Position{RunID: 2, Gen: 1, Off: 99}}))
	f.Add(snap(3, Op{Kind: KindSet, Key: "future", Size: 10, Cost: 1}))
	f.Add(snap(1, Op{Kind: KindSetPrio, Key: "smuggled", Size: 10, Cost: 1, Priority: 9}))
	valid := snap(2, Op{Kind: KindSet, Key: "torn", Value: []byte("v"), Size: 10, Cost: 1})
	f.Add(valid[:len(valid)-2]) // mid-record tear
	f.Add(valid[:fileHeaderLen])
	f.Add([]byte("CAMPSNP1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		version := uint32(0)
		if len(data) >= fileHeaderLen {
			version = binary.LittleEndian.Uint32(data[8:])
		}
		n := 0
		applied, err := ReadSnapshot(bytes.NewReader(data), func(op Op) error {
			if op.Kind == KindSet || op.Kind == KindSetPrio {
				n++
			}
			switch op.Kind {
			case KindSet:
			case KindSetPrio, KindPosition, KindScale, KindTenant:
				if version < 2 {
					t.Fatalf("v%d snapshot yielded a v2 record kind %d", version, op.Kind)
				}
			default:
				t.Fatalf("snapshot reader applied kind %d", op.Kind)
			}
			keyless := op.Kind == KindPosition || op.Kind == KindScale
			if (op.Key == "") != keyless || op.Size < 0 || op.Cost < 0 || op.Reserve < 0 {
				t.Fatalf("snapshot reader applied invalid op %+v", op)
			}
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) && !errors.Is(err, ErrVersion) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if applied != n {
			t.Fatalf("reader reported %d entries, applied %d", applied, n)
		}
	})
}

// FuzzDecodePositionRecord frames arbitrary bytes as a checksummed
// KindPosition payload, so the fuzzer explores the position decoder itself
// rather than bouncing off the CRC: accepted positions must satisfy the
// structural invariants (a real run, a real generation, an offset at or
// past the segment header) and survive a semantic re-encode round trip.
func FuzzDecodePositionRecord(f *testing.F) {
	frame := func(payload []byte) []byte {
		rec := make([]byte, recordHeaderLen, recordHeaderLen+len(payload))
		rec = append(rec, payload...)
		binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[recordHeaderLen:], crcTable))
		return rec
	}
	for _, pos := range []Position{
		{RunID: 1, Gen: 1, Off: SegmentHeaderLen},
		{RunID: 1<<64 - 1, Gen: 1 << 40, Off: 1 << 50},
		{RunID: 7, Gen: 3, Off: 4096},
	} {
		rec := AppendRecord(nil, Op{Kind: KindPosition, Pos: pos})
		f.Add(rec[recordHeaderLen:]) // the payload alone; the fuzz body frames it
	}
	f.Add([]byte{byte(KindPosition), 0})                          // truncated varints
	f.Add([]byte{byte(KindPosition), 0, 0, 0, 0})                 // run id zero
	f.Add([]byte{byte(KindPosition), 0, 1, 1, 1})                 // offset below header
	f.Add([]byte{byte(KindPosition), 3, 'k', 'e', 'y', 1, 1, 24}) // keyed position
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, used, err := DecodeRecord(frame(payload))
		if err != nil {
			if !errors.Is(err, ErrShortRecord) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if used != recordHeaderLen+len(payload) {
			t.Fatalf("decoder consumed %d of %d bytes", used, recordHeaderLen+len(payload))
		}
		if op.Kind != KindPosition {
			return // the first byte selected another kind; covered elsewhere
		}
		if op.Key != "" || op.Pos.RunID == 0 || op.Pos.Gen == 0 || op.Pos.Off < SegmentHeaderLen {
			t.Fatalf("decoder accepted invalid position op %+v", op)
		}
		// Semantic round trip: canonical re-encode decodes to the same
		// position (byte equality is not required — varints have redundant
		// encodings the checksum cannot rule out).
		re, _, err := DecodeRecord(AppendRecord(nil, op))
		if err != nil || re.Pos != op.Pos {
			t.Fatalf("position round trip: %+v vs %+v (%v)", re.Pos, op.Pos, err)
		}
	})
}
