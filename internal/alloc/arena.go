// Package alloc holds the packed value layout of the server's arena mode.
//
// Arena is the Memshare-style log-structured layout: keys and values are
// packed into large append-only segment blocks as self-describing records
//
//	[klen uvarint | vlen uvarint | flags uint32 LE | expiry int64 LE | key | value]
//
// indexed from outside by a (segment, offset) Ref. A set copies the bytes
// into the tail segment and a get slices them back out, so the store's
// steady state performs no per-item heap allocation and no per-item GC work.
// Deletes and overwrites only mark bytes dead; an incremental compactor
// relocates the live records of the deadest segment in small bounded steps
// (Memshare's cleaner) and recycles the segment wholesale.
//
// The record layout is deliberately position-independent and self-delimiting
// — a segment is parseable from byte 0 with no out-of-band index — so a
// future restart path can mmap segment files and rebuild the index with one
// sequential scan (ROADMAP's mmap-instant-restart; this format is step 1).
//
// The arena performs no locking: kvserver drives it under the shard mutex.
package alloc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrNoMemory is returned when a record cannot be placed without reclaiming
// dead bytes or evicting something.
var ErrNoMemory = errors.New("alloc: out of memory")

// Ref identifies one record in an Arena: the segment it lives in and the
// byte offset of its header. The zero Ref is indistinguishable from "first
// record of segment 0", so holders must track validity themselves (the
// kvserver item does: an item exists only while its record does).
type Ref struct {
	seg uint32
	off uint32
}

// Word packs the ref into one word, segment in the high half; RefOf reverses
// it.
func (r Ref) Word() uint64 { return uint64(r.seg)<<32 | uint64(r.off) }

// RefOf rebuilds the Ref a Word came from.
func RefOf(w uint64) Ref { return Ref{seg: uint32(w >> 32), off: uint32(w)} }

// recHeaderFixed is the fixed tail of a record header: 4 flag bytes plus 8
// expiry bytes (unix nanoseconds, 0 = no expiry).
const recHeaderFixed = 12

// DefaultArenaSegment is the segment size when the capacity is large enough
// not to clamp it.
const DefaultArenaSegment = 1 << 20

// aseg is one segment block. buf's length is the append cursor; records are
// contiguous from 0 to len(buf), so a full segment scan needs no index.
type aseg struct {
	buf    []byte
	dead   int64 // bytes belonging to released/overwritten/relocated records
	sealed bool  // no longer the append target
	queued bool  // waiting in the compaction victim queue
	// oversize marks a dedicated exactly-sized segment holding one record
	// larger than segSize. It is dropped wholesale when its record dies and
	// is never a relocation source or target.
	oversize bool
}

// Arena is a packed per-shard storage region; see the package comment.
type Arena struct {
	segSize  int64
	capacity int64 // budget: max bytes held across all segment buffers
	held     int64 // current Σ cap(seg.buf)

	segs     []*aseg
	active   int      // index of the append target in segs, -1 when none
	freeSegs []uint32 // recycled normal segments, buffers retained
	freeIDs  []uint32 // slots of dropped oversize segments, buffers released

	// victims queues sealed segments whose dead ratio crossed the
	// compaction threshold; cursor is the scan offset inside victims[0],
	// carried across incremental CompactStep calls.
	victims []uint32
	cursor  int64

	live        int64
	dead        int64
	compactions uint64
	relocated   uint64 // bytes moved by the compactor
}

// NewArena sizes an arena for capacity bytes of records. segSize 0 picks a
// default (1 MiB, clamped so small shards still get several segments to
// rotate through). An explicit segSize is clamped to the capacity.
func NewArena(capacity, segSize int64) (*Arena, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("alloc: arena capacity must be positive, got %d", capacity)
	}
	if segSize == 0 {
		segSize = capacity / 8
		if segSize > DefaultArenaSegment {
			segSize = DefaultArenaSegment
		}
		if segSize < 4096 {
			segSize = 4096
		}
	}
	if segSize < 64 {
		segSize = 64
	}
	if segSize > capacity {
		segSize = capacity
	}
	return &Arena{segSize: segSize, capacity: capacity, active: -1}, nil
}

// SegmentSize is the size of a normal segment: the most the arena may hold
// beyond its capacity, and only while a relocation's victim awaits recycling.
func (a *Arena) SegmentSize() int64 { return a.segSize }

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// recordSize is the full encoded size of a record with the given key and
// value lengths.
func recordSize(klen, vlen int) int64 {
	return int64(uvarintLen(uint64(klen))+uvarintLen(uint64(vlen))+recHeaderFixed) + int64(klen) + int64(vlen)
}

// appendRecord encodes one record onto buf. Generic over the key form so the
// wire []byte path never materializes a string.
func appendRecord[K ~string | ~[]byte](buf []byte, key K, value []byte, flags uint32, expNano int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(expNano))
	buf = append(buf, key...)
	buf = append(buf, value...)
	return buf
}

// decodeRecord splits the record at the start of b. The returned slices
// alias b.
func decodeRecord(b []byte) (key, value []byte, flags uint32, expNano int64, size int64) {
	kl, n1 := binary.Uvarint(b)
	vl, n2 := binary.Uvarint(b[n1:])
	h := n1 + n2
	flags = binary.LittleEndian.Uint32(b[h:])
	expNano = int64(binary.LittleEndian.Uint64(b[h+4:]))
	h += recHeaderFixed
	key = b[h : h+int(kl)]
	value = b[h+int(kl) : h+int(kl)+int(vl)]
	return key, value, flags, expNano, int64(h) + int64(kl) + int64(vl)
}

// Append copies one record into the arena and returns its Ref. ErrNoMemory
// means the arena is physically full: the caller should reclaim dead bytes
// (CompactForce) or evict entries (which creates dead bytes) and retry.
func (a *Arena) Append(key string, value []byte, flags uint32, expNano int64) (Ref, error) {
	return appendIn(a, key, value, flags, expNano)
}

// appendIn is Append generic over the key form; relocation reuses it with
// the []byte key sliced out of the victim segment.
func appendIn[K ~string | ~[]byte](a *Arena, key K, value []byte, flags uint32, expNano int64) (Ref, error) {
	n := recordSize(len(key), len(value))
	if n > a.segSize {
		return appendOversize(a, key, value, flags, expNano, n)
	}
	id, seg := a.tail(n, false)
	if seg == nil {
		return Ref{}, ErrNoMemory
	}
	off := len(seg.buf)
	seg.buf = appendRecord(seg.buf, key, value, flags, expNano)
	a.live += n
	return Ref{seg: id, off: uint32(off)}, nil
}

// appendOversize places one record larger than segSize in a dedicated
// exactly-sized segment. Retained free segments are dropped first to make
// budget room: their memory is idle by definition.
func appendOversize[K ~string | ~[]byte](a *Arena, key K, value []byte, flags uint32, expNano int64, n int64) (Ref, error) {
	for a.held+n > a.capacity && len(a.freeSegs) > 0 {
		a.dropFreeSeg()
	}
	if a.held+n > a.capacity {
		return Ref{}, ErrNoMemory
	}
	seg := &aseg{buf: make([]byte, 0, n), sealed: true, oversize: true}
	id := a.installSeg(seg)
	a.held += n
	seg.buf = appendRecord(seg.buf, key, value, flags, expNano)
	a.live += n
	return Ref{seg: id, off: 0}, nil
}

// dropFreeSeg releases one recycled segment's buffer back to the heap,
// returning its budget bytes.
func (a *Arena) dropFreeSeg() {
	id := a.freeSegs[len(a.freeSegs)-1]
	a.freeSegs = a.freeSegs[:len(a.freeSegs)-1]
	seg := a.segs[id]
	a.held -= int64(cap(seg.buf))
	a.segs[id] = nil
	a.freeIDs = append(a.freeIDs, id)
}

// installSeg places seg in the first free slot (or appends one) and returns
// its id.
func (a *Arena) installSeg(seg *aseg) uint32 {
	if n := len(a.freeIDs); n > 0 {
		id := a.freeIDs[n-1]
		a.freeIDs = a.freeIDs[:n-1]
		a.segs[id] = seg
		return id
	}
	a.segs = append(a.segs, seg)
	return uint32(len(a.segs) - 1)
}

// tail returns a segment with room for n more bytes, sealing the current
// active segment and rotating to a recycled or new one as needed. overshoot
// lets the compactor exceed the byte budget by one segment: relocation needs
// somewhere to write before the victim's recycle pays the budget back. Until
// it does, the borrowed room is the relocation's alone — appends are refused,
// so the caller's CompactForce finishes the victim — which is what keeps the
// overshoot to that one segment.
func (a *Arena) tail(n int64, overshoot bool) (uint32, *aseg) {
	if !overshoot && a.held > a.capacity {
		return 0, nil
	}
	if a.active >= 0 {
		seg := a.segs[a.active]
		if int64(cap(seg.buf)-len(seg.buf)) >= n {
			return uint32(a.active), seg
		}
		a.seal(uint32(a.active), seg)
		a.active = -1
	}
	if m := len(a.freeSegs); m > 0 {
		id := a.freeSegs[m-1]
		a.freeSegs = a.freeSegs[:m-1]
		seg := a.segs[id]
		seg.buf = seg.buf[:0]
		seg.dead = 0
		seg.sealed, seg.queued = false, false
		a.active = int(id)
		return id, seg
	}
	if a.held+a.segSize > a.capacity && !overshoot {
		return 0, nil
	}
	seg := &aseg{buf: make([]byte, 0, a.segSize)}
	id := a.installSeg(seg)
	a.held += a.segSize
	a.active = int(id)
	return id, seg
}

// seal retires the active segment and queues it for compaction if its dead
// ratio already crossed the threshold.
func (a *Arena) seal(id uint32, seg *aseg) {
	seg.sealed = true
	a.maybeQueue(id, seg)
}

// maybeQueue puts a sealed segment on the victim queue once at least half
// its bytes are dead — the compaction trigger.
func (a *Arena) maybeQueue(id uint32, seg *aseg) {
	if !seg.sealed || seg.queued || seg.oversize || len(seg.buf) == 0 {
		return
	}
	if seg.dead*2 >= int64(len(seg.buf)) {
		seg.queued = true
		a.victims = append(a.victims, id)
	}
}

// Release marks the record at ref dead. Oversize segments whose record died
// are dropped immediately; normal segments wait for the compactor.
func (a *Arena) Release(ref Ref) {
	seg := a.segs[ref.seg]
	_, _, _, _, n := decodeRecord(seg.buf[ref.off:])
	a.markDead(ref.seg, seg, n)
}

func (a *Arena) markDead(id uint32, seg *aseg, n int64) {
	seg.dead += n
	a.dead += n
	a.live -= n
	if seg.oversize {
		if seg.dead >= int64(len(seg.buf)) {
			a.held -= int64(cap(seg.buf))
			a.dead -= seg.dead
			a.segs[id] = nil
			a.freeIDs = append(a.freeIDs, id)
		}
		return
	}
	a.maybeQueue(id, seg)
}

// Value returns the record's value bytes, aliasing the segment buffer. The
// slice is invalidated by compaction, so callers must copy (or finish using
// it) before releasing the lock that serializes arena access.
func (a *Arena) Value(ref Ref) []byte {
	_, v, _, _, _ := decodeRecord(a.segs[ref.seg].buf[ref.off:])
	return v
}

// Record returns the full decoded record at ref; the slices alias the
// segment buffer (see Value).
func (a *Arena) Record(ref Ref) (key, value []byte, flags uint32, expNano int64) {
	key, value, flags, expNano, _ = decodeRecord(a.segs[ref.seg].buf[ref.off:])
	return key, value, flags, expNano
}

// TouchExpiry rewrites the record's expiry field in place — the one header
// mutation the format allows, so touch never reallocates the record.
func (a *Arena) TouchExpiry(ref Ref, expNano int64) {
	b := a.segs[ref.seg].buf[ref.off:]
	_, n1 := binary.Uvarint(b)
	_, n2 := binary.Uvarint(b[n1:])
	binary.LittleEndian.PutUint64(b[n1+n2+4:], uint64(expNano))
}

// NeedsCompaction reports whether any segment is waiting on the victim
// queue; kvserver runs one bounded CompactStep per mutation while it holds.
func (a *Arena) NeedsCompaction() bool { return len(a.victims) > 0 }

// CompactStep scans up to maxBytes of the current victim segment, asking
// alive whether each record is still indexed at its old Ref and announcing
// every relocation through moved before the old bytes are retired — so the
// caller can re-point its index under the same lock. A fully scanned victim
// is recycled onto the free-segment list, or dropped while the arena holds
// more than its budget. Returns the bytes scanned and the bytes relocated.
func (a *Arena) CompactStep(maxBytes int64, alive func(key []byte, ref Ref) bool, moved func(key []byte, ref Ref)) (scanned, relocated int64) {
	if len(a.victims) == 0 {
		return 0, 0
	}
	id := a.victims[0]
	seg := a.segs[id]
	for a.cursor < int64(len(seg.buf)) && scanned < maxBytes {
		off := a.cursor
		key, value, flags, expNano, n := decodeRecord(seg.buf[off:])
		a.cursor += n
		scanned += n
		if !alive(key, Ref{seg: id, off: uint32(off)}) {
			continue // already marked dead by its release/overwrite
		}
		dstID, dst := a.tail(recordSize(len(key), len(value)), true)
		noff := len(dst.buf)
		dst.buf = appendRecord(dst.buf, key, value, flags, expNano)
		moved(key, Ref{seg: dstID, off: uint32(noff)})
		// The new copy is the live one; the original joins the dead bytes
		// so the recycle below accounts for every byte in the segment.
		seg.dead += n
		a.dead += n
		a.relocated += uint64(n)
		relocated += n
	}
	if a.cursor >= int64(len(seg.buf)) {
		a.dead -= seg.dead
		seg.buf = seg.buf[:0]
		seg.dead = 0
		seg.queued = false
		a.victims = a.victims[1:]
		a.cursor = 0
		a.freeSegs = append(a.freeSegs, id)
		if a.held > a.capacity {
			// Relocation overshot the budget for somewhere to write; the
			// recycled victim pays it back instead of being retained.
			a.dropFreeSeg()
		}
		a.compactions++
	}
	return scanned, relocated
}

// CompactForce fully compacts one segment — the queued victim if any,
// otherwise the sealed segment with the most dead bytes — and reports
// whether a segment was recycled. The Append retry loop uses it when the
// arena is physically full: recycling any segment makes room for the next
// normal-size record.
func (a *Arena) CompactForce(alive func(key []byte, ref Ref) bool, moved func(key []byte, ref Ref)) bool {
	if len(a.victims) == 0 {
		best, bestDead := -1, int64(0)
		for id, seg := range a.segs {
			if seg == nil || !seg.sealed || seg.oversize || seg.queued {
				continue
			}
			if seg.dead > bestDead {
				best, bestDead = id, seg.dead
			}
		}
		if best < 0 {
			return false
		}
		a.segs[best].queued = true
		a.victims = append(a.victims, uint32(best))
	}
	victims := len(a.victims)
	for len(a.victims) == victims {
		if s, _ := a.CompactStep(1<<62, alive, moved); s == 0 && len(a.victims) == victims {
			// An empty victim recycles without scanning; guard against a
			// zero-progress loop all the same.
			break
		}
	}
	return len(a.victims) < victims
}

// ArenaStats is a point-in-time accounting snapshot.
type ArenaStats struct {
	LiveBytes      int64  // bytes of indexed records
	DeadBytes      int64  // bytes awaiting compaction
	HeldBytes      int64  // total segment memory held (incl. free + waste)
	Segments       int    // segments holding a buffer
	Compactions    uint64 // segments recycled by the compactor
	RelocatedBytes uint64 // live bytes the compactor moved
}

// Stats returns the arena's accounting counters.
func (a *Arena) Stats() ArenaStats {
	n := 0
	for _, seg := range a.segs {
		if seg != nil {
			n++
		}
	}
	return ArenaStats{
		LiveBytes:      a.live,
		DeadBytes:      a.dead,
		HeldBytes:      a.held,
		Segments:       n,
		Compactions:    a.compactions,
		RelocatedBytes: a.relocated,
	}
}
