// Package persist adds durability and warm restart to the cost-aware KVS:
// a binary snapshot format that serializes live entries together with their
// CAMP metadata (the per-key recomputation cost is the expensive-to-relearn
// part), and an append-only log (AOF) that journals every mutation between
// snapshots. Recovery loads the newest valid snapshot, replays the AOF tail,
// and tolerates a torn final record the way Redis' aof-load-truncated does.
//
// The package is deliberately value-agnostic: callers describe mutations as
// Op records (key, value, flags, expiry, size, cost) and re-apply recovered
// Ops through whatever eviction policy they run, so CAMP's queues and heap
// are rebuilt with their original costs rather than reset to cold defaults.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"camp/internal/kvbuf"
)

// Kind discriminates journal records.
type Kind uint8

// Journal record kinds.
const (
	// KindSet stores or replaces a key with full metadata.
	KindSet Kind = 1
	// KindDelete removes a key.
	KindDelete Kind = 2
	// KindTouch updates a key's expiry without rewriting the value.
	KindTouch Kind = 3
	// KindFlush empties the store (memcached flush_all). With no key it
	// empties everything (the only form before multi-tenancy, so legacy
	// journals keep their meaning); with a key it empties only that
	// tenant's entries. Journaling it makes a flush durable even when the
	// snapshot-then-truncate that normally follows fails.
	KindFlush Kind = 4
	// KindSetPrio is KindSet plus the entry's eviction-priority offset
	// (policy priority H minus the global offset L, encoded by the policy).
	// Snapshot format v2 writes these so a warm start restores the live
	// cross-queue eviction schedule exactly, even mid-churn; stores whose
	// policy has no priority state keep writing plain KindSet.
	KindSetPrio Kind = 5
	// KindPosition records a replication position: the primary journal run,
	// generation and byte offset the follower had applied up to this point.
	// Followers append one atomically with each applied op (and snapshots
	// carry the latest one across compaction), so a restarted follower
	// resumes with CONTINUE instead of a full resync. It mutates no data.
	KindPosition Kind = 6
	// KindScale records a policy's adaptive priority scale (CAMP's ratio
	// integerizer state — the largest size ever observed). Snapshot v2
	// writes it ahead of the entries so a restored policy buckets future
	// inserts exactly as the live one would have; it is learned from the
	// whole workload, evicted entries included, so it cannot be re-derived
	// from the snapshot's entries.
	KindScale Kind = 7
	// KindTenant records a tenant's existence and reserved-byte quota (the
	// Key field holds the tenant name). Journaled when a tenant is created
	// or its reserve changes, and written ahead of the entries in snapshot
	// v2+, so warm restarts and FULLSYNC bootstraps restore tenant
	// ownership and quotas even for tenants with no resident keys.
	KindTenant Kind = 8
)

// Position is a replication position: a byte offset into one generation of
// one journal run. RunID scopes it — offsets are only meaningful against
// the journal run that produced them (see Manager.RunID).
type Position struct {
	RunID uint64
	Gen   uint64
	Off   int64
}

// Op is one durable mutation. Snapshots are sequences of KindSet Ops; the
// AOF additionally carries deletes and touches.
type Op struct {
	Kind  Kind
	Key   string
	Value []byte
	// KV is set on a decoded KindSet or KindSetPrio record: the one
	// internal/kvbuf buffer that Key and Value alias, for a store to keep.
	KV []byte
	// Flags is the opaque client flags word (memcached semantics).
	Flags uint32
	// Expires is the absolute expiry as Unix nanoseconds; 0 means none.
	// Journaling absolute times keeps TTL semantics exact across restarts.
	Expires int64
	// Size is the charged size at the time the op was applied. Stores that
	// derive size from key/value/overhead may recompute it on recovery.
	Size int64
	// Cost is the CAMP recomputation cost — the state that took real
	// wall-clock time to learn and that recovery must not throw away.
	Cost int64
	// Priority and Class are the policy priority offset and priority class
	// (CAMP's queue id) carried by KindSetPrio records — opaque to this
	// package; the policy that exported them decodes them. Zero for every
	// other kind.
	Priority uint64
	Class    uint64
	// Pos is the replication position carried by KindPosition records;
	// zero for every other kind.
	Pos Position
	// Scale is the adaptive priority scale carried by KindScale records;
	// zero for every other kind.
	Scale uint64
	// Reserve is the tenant's reserved-byte quota carried by KindTenant
	// records (whose Key is the tenant name); zero for every other kind.
	Reserve int64
}

// Wire limits. Records beyond these are rejected as corrupt rather than
// trusted, so a flipped length byte cannot drive a huge allocation.
const (
	// MaxKeyLen bounds the key length in a record.
	MaxKeyLen = 1 << 16
	// MaxValueLen bounds the value length in a record.
	MaxValueLen = 1 << 30
	// maxPayload bounds a whole record payload.
	maxPayload = MaxValueLen + MaxKeyLen + 64
)

// recordHeaderLen is the fixed prefix of every record: a uint32 payload
// length followed by a uint32 CRC32 (IEEE) of the payload.
const recordHeaderLen = 8

// Decoding errors.
var (
	// ErrShortRecord means the buffer ends mid-record — a torn write. AOF
	// recovery treats this as "truncate here and keep serving".
	ErrShortRecord = errors.New("persist: short record")
	// ErrCorruptRecord means the record is structurally invalid or fails
	// its checksum; the data cannot be trusted.
	ErrCorruptRecord = errors.New("persist: corrupt record")
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// AppendRecord appends the encoded record for op to dst and returns the
// extended slice. Layout: uint32 payload length, uint32 CRC32(payload),
// payload. The payload is op-kind-tagged and uses varints for all sizes.
func AppendRecord(dst []byte, op Op) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = append(dst, byte(op.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(op.Key)))
	dst = append(dst, op.Key...)
	switch op.Kind {
	case KindSet, KindSetPrio:
		dst = binary.AppendUvarint(dst, uint64(len(op.Value)))
		dst = append(dst, op.Value...)
		dst = binary.LittleEndian.AppendUint32(dst, op.Flags)
		dst = binary.AppendVarint(dst, op.Expires)
		dst = binary.AppendVarint(dst, op.Size)
		dst = binary.AppendVarint(dst, op.Cost)
		if op.Kind == KindSetPrio {
			dst = binary.AppendUvarint(dst, op.Priority)
			dst = binary.AppendUvarint(dst, op.Class)
		}
	case KindTouch:
		dst = binary.AppendVarint(dst, op.Expires)
	case KindPosition:
		dst = binary.AppendUvarint(dst, op.Pos.RunID)
		dst = binary.AppendUvarint(dst, op.Pos.Gen)
		dst = binary.AppendVarint(dst, op.Pos.Off)
	case KindScale:
		dst = binary.AppendUvarint(dst, op.Scale)
	case KindTenant:
		dst = binary.AppendVarint(dst, op.Reserve)
	case KindDelete, KindFlush:
		// Key only (empty for a global flush, a tenant name for a scoped
		// one).
	}
	payload := dst[start+recordHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// CheckRecord verifies the framing and checksum of the record at the front
// of b without decoding its payload, returning the record's total byte
// length. The CRC guarantees the payload is byte-identical to what
// AppendRecord produced, so forwarding paths (replication tails) can skip the
// structural decode the receiver performs anyway.
func CheckRecord(b []byte) (int, error) {
	if len(b) < recordHeaderLen {
		return 0, ErrShortRecord
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxPayload {
		return 0, fmt.Errorf("%w: payload length %d", ErrCorruptRecord, n)
	}
	if len(b) < recordHeaderLen+int(n) {
		return 0, ErrShortRecord
	}
	payload := b[recordHeaderLen : recordHeaderLen+int(n)]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[4:]); got != want {
		return 0, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorruptRecord, got, want)
	}
	return recordHeaderLen + int(n), nil
}

// DecodeRecord decodes one record from the front of b, returning the op and
// the number of bytes consumed. It returns ErrShortRecord when b ends before
// the record does (a torn tail) and ErrCorruptRecord when the checksum or
// structure is invalid.
func DecodeRecord(b []byte) (Op, int, error) {
	n, err := CheckRecord(b)
	if err != nil {
		return Op{}, 0, err
	}
	op, err := decodePayload(b[recordHeaderLen:n])
	if err != nil {
		return Op{}, 0, err
	}
	return op, n, nil
}

func decodePayload(p []byte) (Op, error) {
	if len(p) == 0 {
		return Op{}, fmt.Errorf("%w: empty payload", ErrCorruptRecord)
	}
	op := Op{Kind: Kind(p[0])}
	p = p[1:]
	key, p, err := decodeBytes(p, MaxKeyLen, "key")
	if err != nil {
		return Op{}, err
	}
	// KindFlush is the one kind where the key is optional: empty means a
	// global flush (the only form legacy journals contain), non-empty names
	// the tenant being flushed.
	keyless := op.Kind == KindPosition || op.Kind == KindScale
	if len(key) == 0 && !keyless && op.Kind != KindFlush {
		return Op{}, fmt.Errorf("%w: empty key", ErrCorruptRecord)
	}
	if len(key) != 0 && keyless {
		return Op{}, fmt.Errorf("%w: kind %d record carries a key", ErrCorruptRecord, op.Kind)
	}
	if op.Kind != KindSet && op.Kind != KindSetPrio {
		op.Key = string(key)
	}
	switch op.Kind {
	case KindSet, KindSetPrio:
		val, rest, err := decodeBytes(p, MaxValueLen, "value")
		if err != nil {
			return Op{}, err
		}
		p = rest
		op.KV = kvbuf.Of(key, val)
		op.Key, op.Value = kvbuf.Key(op.KV), kvbuf.Value(op.KV)
		if len(p) < 4 {
			return Op{}, fmt.Errorf("%w: missing flags", ErrCorruptRecord)
		}
		op.Flags = binary.LittleEndian.Uint32(p)
		p = p[4:]
		if op.Expires, p, err = decodeVarint(p, "expires"); err != nil {
			return Op{}, err
		}
		if op.Size, p, err = decodeVarint(p, "size"); err != nil {
			return Op{}, err
		}
		if op.Cost, p, err = decodeVarint(p, "cost"); err != nil {
			return Op{}, err
		}
		if op.Size < 0 || op.Cost < 0 {
			return Op{}, fmt.Errorf("%w: negative size or cost", ErrCorruptRecord)
		}
		if op.Kind == KindSetPrio {
			if op.Priority, p, err = decodeUvarint(p, "priority"); err != nil {
				return Op{}, err
			}
			if op.Class, p, err = decodeUvarint(p, "priority class"); err != nil {
				return Op{}, err
			}
		}
	case KindDelete, KindFlush:
	case KindTouch:
		if op.Expires, p, err = decodeVarint(p, "expires"); err != nil {
			return Op{}, err
		}
	case KindPosition:
		if op.Pos.RunID, p, err = decodeUvarint(p, "run id"); err != nil {
			return Op{}, err
		}
		if op.Pos.Gen, p, err = decodeUvarint(p, "generation"); err != nil {
			return Op{}, err
		}
		if op.Pos.Off, p, err = decodeVarint(p, "offset"); err != nil {
			return Op{}, err
		}
		// A structurally valid position names a real run, a real
		// generation, and an offset at or past the segment header (run ID
		// zero is the follower's "no position" sentinel and is never
		// persisted).
		if op.Pos.RunID == 0 || op.Pos.Gen == 0 || op.Pos.Off < SegmentHeaderLen {
			return Op{}, fmt.Errorf("%w: invalid position %+v", ErrCorruptRecord, op.Pos)
		}
	case KindScale:
		if op.Scale, p, err = decodeUvarint(p, "scale"); err != nil {
			return Op{}, err
		}
	case KindTenant:
		if op.Reserve, p, err = decodeVarint(p, "reserve"); err != nil {
			return Op{}, err
		}
		if op.Reserve < 0 {
			return Op{}, fmt.Errorf("%w: negative tenant reserve", ErrCorruptRecord)
		}
	default:
		return Op{}, fmt.Errorf("%w: unknown op kind %d", ErrCorruptRecord, op.Kind)
	}
	if len(p) != 0 {
		return Op{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptRecord, len(p))
	}
	return op, nil
}

func decodeBytes(p []byte, limit uint64, what string) ([]byte, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > limit {
		return nil, nil, fmt.Errorf("%w: bad %s length", ErrCorruptRecord, what)
	}
	p = p[w:]
	if uint64(len(p)) < n {
		return nil, nil, fmt.Errorf("%w: %s overruns payload", ErrCorruptRecord, what)
	}
	return p[:n], p[n:], nil
}

func decodeVarint(p []byte, what string) (int64, []byte, error) {
	v, w := binary.Varint(p)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad %s varint", ErrCorruptRecord, what)
	}
	return v, p[w:], nil
}

func decodeUvarint(p []byte, what string) (uint64, []byte, error) {
	v, w := binary.Uvarint(p)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad %s uvarint", ErrCorruptRecord, what)
	}
	return v, p[w:], nil
}
