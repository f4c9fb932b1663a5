package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"
)

func sampleOps() []Op {
	return []Op{
		{Kind: KindSet, Key: "user:42", Value: []byte("profile-bytes"), Flags: 7,
			Expires: time.Date(2026, 7, 28, 0, 0, 0, 0, time.UTC).UnixNano(), Size: 120, Cost: 9000},
		{Kind: KindSet, Key: "k", Value: nil, Size: 57, Cost: 1},
		{Kind: KindDelete, Key: "user:42"},
		{Kind: KindTouch, Key: "k", Expires: 1234567890},
		{Kind: KindTouch, Key: "k"}, // expiry cleared
		{Kind: KindFlush},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	ops := sampleOps()
	for _, op := range ops {
		buf = AppendRecord(buf, op)
	}
	for i, want := range ops {
		got, used, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Key != want.Key || !bytes.Equal(got.Value, want.Value) ||
			got.Flags != want.Flags || got.Expires != want.Expires ||
			got.Size != want.Size || got.Cost != want.Cost {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		buf = buf[used:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after decoding all records", len(buf))
	}
}

func TestDecodeTornRecord(t *testing.T) {
	full := AppendRecord(nil, sampleOps()[0])
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeRecord(full[:cut]); !errors.Is(err, ErrShortRecord) {
			t.Fatalf("cut at %d/%d: got %v, want ErrShortRecord", cut, len(full), err)
		}
	}
}

func TestDecodeCorruptRecord(t *testing.T) {
	full := AppendRecord(nil, sampleOps()[0])
	// Flip one payload byte: the CRC must catch it.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("payload bit flip: got %v, want ErrCorruptRecord", err)
	}
	// A huge length prefix must be rejected, not allocated.
	bad = append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(bad, 1<<31)
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("huge length: got %v, want ErrCorruptRecord", err)
	}
	// Unknown op kind with a valid CRC.
	op := sampleOps()[2]
	raw := AppendRecord(nil, op)
	raw[8] = 200 // op kind byte
	binary.LittleEndian.PutUint32(raw[4:], crcOf(raw[8:]))
	if _, _, err := DecodeRecord(raw); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("unknown kind: got %v, want ErrCorruptRecord", err)
	}
	// Empty key with a valid CRC.
	raw = AppendRecord(nil, Op{Kind: KindDelete, Key: "x"})
	raw[9] = 0 // key length varint
	raw = raw[:len(raw)-1]
	binary.LittleEndian.PutUint32(raw, uint32(len(raw)-recordHeaderLen))
	binary.LittleEndian.PutUint32(raw[4:], crcOf(raw[8:]))
	if _, _, err := DecodeRecord(raw); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("empty key: got %v, want ErrCorruptRecord", err)
	}
}

func crcOf(payload []byte) uint32 {
	return crc32.Checksum(payload, crcTable)
}
