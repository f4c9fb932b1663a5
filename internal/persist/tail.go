package persist

import (
	"errors"
	"fmt"
	"io"
	"time"

	"camp/internal/fault"
)

// SegmentHeaderLen is the byte length of an AOF segment header — the offset
// of the first record in every segment, and therefore the offset a
// replication position resets to when the stream crosses into a new
// generation.
const SegmentHeaderLen = fileHeaderLen

// Replication-position errors.
var (
	// ErrStalePosition reports a replication position that can no longer be
	// served incrementally — the generation was compacted away, skews past
	// the live journal, precedes a stretch the journal was detached for, or
	// the offset overruns its segment. The follower must fall back to a full
	// resync (snapshot + journal bootstrap).
	ErrStalePosition = errors.New("persist: stale replication position")
	// ErrTailTimeout reports that Next's wait elapsed with no new record; the
	// journal is simply idle.
	ErrTailTimeout = errors.New("persist: tail timeout")
)

// TailEvent is one step of a journal tail: either a complete record (Record
// non-nil, still encoded exactly as on disk) or a generation switch (Record
// nil, the stream moved to segment Gen). Gen/Off are the position after the
// event, so a follower mirroring them can resume with TailFrom later.
type TailEvent struct {
	Record []byte
	Gen    uint64
	Off    int64
}

// TailReader follows one Manager's journal for replication: it reads records
// from the segment files themselves (so it sees exactly the bytes recovery
// would replay), blocks on the manager's append notification when it reaches
// the live tail, and crosses into the next generation when compaction retires
// its segment. While a TailReader is attached, garbage collection retains
// every generation from the reader's position forward, so an attached
// follower is never forced into a full resync by a compaction.
//
// A TailReader is owned by a single goroutine; Close releases it (and its
// retention hold) and is safe to call after the manager has closed.
type TailReader struct {
	m *Manager
	f fault.File

	// gen is also read by the manager's GC under m.mu; the owner goroutine
	// only updates it while holding m.mu.
	gen     uint64
	off     int64 // consumed position (record boundary)
	fileOff int64 // read position (off + buffered bytes)

	buf        []byte
	start, end int
	closed     bool
}

// TailFrom validates a replication position and returns a TailReader that
// resumes exactly there. The position must name a generation the journal
// still has on disk and an offset inside it; anything else — generation zero,
// a generation beyond the live one, an offset before the segment header or
// past its end — is ErrStalePosition, telling the caller to bootstrap with
// FullSync instead. Offsets are trusted to lie on a record boundary (they
// come from a follower's own byte accounting); a mid-record offset surfaces
// as a checksum failure on the first read, never as corruption applied
// downstream.
func (m *Manager) TailFrom(gen uint64, off int64) (*TailReader, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tailFromLocked(gen, off)
}

func (m *Manager) tailFromLocked(gen uint64, off int64) (*TailReader, error) {
	if m.closed {
		return nil, ErrClosed
	}
	if gen == 0 || gen > m.gen || gen < m.tailFloor {
		return nil, fmt.Errorf("%w: generation %d (journal at %d, unbroken from %d)", ErrStalePosition, gen, m.gen, m.tailFloor)
	}
	if off < fileHeaderLen {
		return nil, fmt.Errorf("%w: offset %d before segment header", ErrStalePosition, off)
	}
	f, err := m.fs.Open(m.aofPath(gen))
	if err != nil {
		return nil, fmt.Errorf("%w: generation %d gone", ErrStalePosition, gen)
	}
	limit := int64(0)
	if gen == m.gen {
		limit = m.aofLen
	} else {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: stat segment: %w", err)
		}
		limit = st.Size()
	}
	if off > limit {
		f.Close()
		return nil, fmt.Errorf("%w: offset %d past segment end %d", ErrStalePosition, off, limit)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: seek segment: %w", err)
	}
	tr := &TailReader{m: m, f: f, gen: gen, off: off, fileOff: off}
	m.tailers[tr] = struct{}{}
	return tr, nil
}

// FullSyncSource is everything a follower bootstrap needs, captured
// atomically: the newest snapshot (nil when none has been written yet) and a
// TailReader positioned at the first journal record past it. The snapshot
// file handle stays readable even if a concurrent compaction supersedes and
// unlinks it; the registered tail holds its segments against GC.
type FullSyncSource struct {
	SnapGen  uint64
	SnapSize int64
	Snapshot fault.File
	Tail     *TailReader
}

// Close releases the snapshot handle and the tail reader.
func (fs *FullSyncSource) Close() {
	if fs.Snapshot != nil {
		fs.Snapshot.Close()
	}
	fs.Tail.Close()
}

// FullSync opens a consistent bootstrap source: the newest on-disk snapshot
// plus the journal from that snapshot's generation forward. Applying the
// snapshot entries and then the tailed records reproduces the primary's store
// — the same stitch recovery performs, streamed instead of replayed locally.
func (m *Manager) FullSync() (*FullSyncSource, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	fs := &FullSyncSource{SnapGen: m.snapGen}
	if m.snapGen > 0 {
		f, err := m.fs.Open(m.snapPath(m.snapGen))
		if err != nil {
			return nil, fmt.Errorf("persist: open snapshot: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: stat snapshot: %w", err)
		}
		fs.Snapshot = f
		fs.SnapSize = st.Size()
	}
	// The first segment the snapshot does not subsume. With no snapshot yet,
	// every retained segment is load-bearing: start from the oldest.
	startGen := m.snapGen
	if startGen == 0 {
		_, aofs, err := scanDir(m.fs, m.opts.Dir)
		if err != nil {
			if fs.Snapshot != nil {
				fs.Snapshot.Close()
			}
			return nil, fmt.Errorf("persist: scan journal: %w", err)
		}
		if len(aofs) == 0 {
			if fs.Snapshot != nil {
				fs.Snapshot.Close()
			}
			return nil, errors.New("persist: no journal segments to sync from")
		}
		startGen = aofs[0]
	}
	tail, err := m.tailFromLocked(startGen, fileHeaderLen)
	if err != nil {
		if fs.Snapshot != nil {
			fs.Snapshot.Close()
		}
		return nil, err
	}
	fs.Tail = tail
	return fs, nil
}

// Gen returns the generation the reader is currently positioned in.
func (tr *TailReader) Gen() uint64 { return tr.gen }

// Off returns the consumed byte offset inside the current segment.
func (tr *TailReader) Off() int64 { return tr.off }

// Close detaches the reader from the manager, releasing its GC retention
// hold. Idempotent.
func (tr *TailReader) Close() {
	if tr.closed {
		return
	}
	tr.closed = true
	tr.m.mu.Lock()
	delete(tr.m.tailers, tr)
	tr.m.mu.Unlock()
	if tr.f != nil {
		tr.f.Close()
		tr.f = nil
	}
}

// outcomes of a tail EOF consultation with the manager.
const (
	eofRetry = iota // more bytes appeared; read again
	eofWait         // journal idle; wait on the returned channel
	eofNext         // crossed into the next generation; event is valid
)

// Next returns the next tail event, blocking up to wait for new records when
// the journal is idle (ErrTailTimeout when it elapses; wait <= 0 never
// blocks) or until stop closes (ErrClosed; a nil stop never does). The
// returned record slice is valid only until the following Next call. Other
// errors are terminal: the manager closed (ErrClosed) or the bytes are corrupt.
func (tr *TailReader) Next(wait time.Duration, stop <-chan struct{}) (TailEvent, error) {
	if tr.closed {
		return TailEvent{}, errors.New("persist: tail reader is closed")
	}
	var timeout <-chan time.Time
	for {
		if tr.end > tr.start {
			pending := tr.buf[tr.start:tr.end]
			n, err := CheckRecord(pending)
			if err == nil {
				rec := pending[:n]
				tr.start += n
				tr.off += int64(n)
				return TailEvent{Record: rec, Gen: tr.gen, Off: tr.off}, nil
			}
			if !errors.Is(err, ErrShortRecord) {
				return TailEvent{}, fmt.Errorf("persist: tail generation %d offset %d: %w", tr.gen, tr.off, err)
			}
		}
		n, rerr := tr.fill()
		if n > 0 {
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return TailEvent{}, fmt.Errorf("persist: tail read: %w", rerr)
		}
		ev, outcome, waitCh, err := tr.atEOF()
		switch {
		case err != nil:
			return TailEvent{}, err
		case outcome == eofRetry:
			continue
		case outcome == eofNext:
			return ev, nil
		}
		if wait <= 0 {
			return TailEvent{}, ErrTailTimeout
		}
		if timeout == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-waitCh:
		case <-timeout:
			return TailEvent{}, ErrTailTimeout
		case <-stop:
			return TailEvent{}, ErrClosed
		}
	}
}

// fill reads more segment bytes into the buffer, compacting or growing it as
// needed. Returns the byte count read and any read error (io.EOF at the live
// tail is the normal idle case).
func (tr *TailReader) fill() (int, error) {
	if tr.start == tr.end {
		tr.start, tr.end = 0, 0
	}
	if tr.end == len(tr.buf) {
		switch {
		case tr.start > 0:
			copy(tr.buf, tr.buf[tr.start:tr.end])
			tr.end -= tr.start
			tr.start = 0
		case len(tr.buf) == 0:
			tr.buf = make([]byte, 64<<10)
		default:
			grown := make([]byte, 2*len(tr.buf))
			copy(grown, tr.buf[:tr.end])
			tr.buf = grown
		}
	}
	n, err := tr.f.Read(tr.buf[tr.end:])
	tr.end += n
	tr.fileOff += int64(n)
	return n, err
}

// atEOF decides what an exhausted read means: the live tail (wait for the
// manager's append notification), a lost race with an append (retry), or a
// retired segment (advance into the next generation). Retired segments are
// final — BeginCompact synced and closed them — so a retired segment ending
// mid-record is corruption, not a torn tail.
func (tr *TailReader) atEOF() (ev TailEvent, outcome int, waitCh <-chan struct{}, err error) {
	m := tr.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ev, 0, nil, ErrClosed
	}
	if tr.gen == m.gen {
		if m.aofLen > tr.fileOff {
			return ev, eofRetry, nil, nil
		}
		return ev, eofWait, m.notify, nil
	}
	st, serr := tr.f.Stat()
	if serr != nil {
		return ev, 0, nil, fmt.Errorf("persist: stat retired segment: %w", serr)
	}
	if st.Size() > tr.fileOff {
		return ev, eofRetry, nil, nil
	}
	if tr.gen < m.tailFloor {
		return ev, 0, nil, fmt.Errorf("%w: journal detached after generation %d", ErrStalePosition, tr.gen)
	}
	if tr.end > tr.start {
		return ev, 0, nil, fmt.Errorf("%w: retired segment %d ends mid-record", ErrCorruptRecord, tr.gen)
	}
	next := tr.gen + 1
	f, oerr := m.fs.Open(m.aofPath(next))
	if oerr != nil {
		return ev, 0, nil, fmt.Errorf("%w: segment %d missing after %d", ErrStalePosition, next, tr.gen)
	}
	var hdr [fileHeaderLen]byte
	if _, herr := io.ReadFull(f, hdr[:]); herr != nil {
		f.Close()
		return ev, 0, nil, fmt.Errorf("%w: segment %d header unreadable", ErrCorruptRecord, next)
	}
	if _, herr := checkFileHeader(hdr[:], aofMagic, AOFVersion, "aof"); herr != nil {
		f.Close()
		return ev, 0, nil, herr
	}
	tr.f.Close()
	tr.f = f
	tr.gen = next
	tr.off = fileHeaderLen
	tr.fileOff = fileHeaderLen
	tr.start, tr.end = 0, 0
	return TailEvent{Gen: next, Off: fileHeaderLen}, eofNext, nil, nil
}
