package persist

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camp/internal/fault"
)

// Fsync policies for the append-only log, mirroring Redis' appendfsync.
const (
	// FsyncAlways syncs in every Flush that wrote something: no acknowledged
	// mutation is ever lost, at one write and one fsync per flush (group
	// commit).
	FsyncAlways = "always"
	// FsyncEverySec groups syncs on a one-second timer: a crash loses at
	// most the last second of mutations. The default.
	FsyncEverySec = "everysec"
	// FsyncNo leaves syncing to the OS page cache.
	FsyncNo = "no"
)

// DefaultAOFLimit is the AOF size that triggers snapshot-then-truncate
// compaction when Options.AOFLimit is zero.
const DefaultAOFLimit = 64 << 20

// Options configures a Manager.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// Fsync is one of FsyncAlways, FsyncEverySec or FsyncNo
	// (default FsyncEverySec).
	Fsync string
	// AOFLimit is the AOF byte size beyond which NeedsCompaction reports
	// true (default DefaultAOFLimit).
	AOFLimit int64
	// Logf, when non-nil, receives recovery warnings (torn-tail
	// truncation) and background sync errors.
	Logf func(format string, args ...any)
	// FS is the filesystem the manager performs every file operation
	// through (nil = the real OS). Tests inject a fault.Injector here to
	// make fsyncs fail, disks fill up, and writes tear.
	FS fault.FS
}

// RecoverStats summarizes what Open restored.
type RecoverStats struct {
	// Generation is the active snapshot/AOF generation after recovery.
	Generation uint64
	// SnapshotOps is the number of entries loaded from the snapshot.
	SnapshotOps int
	// ReplayedOps is the number of AOF records re-applied.
	ReplayedOps int
	// TruncatedBytes is how much of a torn AOF tail was discarded.
	TruncatedBytes int64
}

// Info is a point-in-time view of the manager for stats reporting.
type Info struct {
	Generation   uint64
	SnapshotGen  uint64
	AOFSize      int64
	Fsync        string
	Compactions  uint64
	AppendErrors uint64
}

// Manager owns one data directory: at most one live snapshot plus one AOF
// segment per generation. Compaction snapshots the live store into the next
// generation and truncates the journal by switching to a fresh segment.
//
// Manager methods are safe for concurrent use, but callers typically
// serialize Append/Compact behind their own store lock so the journal order
// matches the apply order.
type Manager struct {
	opts Options
	fs   fault.FS

	mu         sync.Mutex
	gen        uint64 // current AOF generation
	snapGen    uint64 // newest on-disk snapshot generation (0 = none)
	aof        fault.File
	aofLen     int64 // bytes in the segment file — what a TailReader may read; buf is not counted
	dirty      bool
	closed     bool
	compacting bool
	buf        []byte // encoded records Flush has yet to write

	// idle lets Flush return without m.mu: true only while the segment is
	// attached, the manager open and buf empty. Written under m.mu.
	idle atomic.Bool

	compactions  uint64
	appendErrors uint64

	// notify is closed and replaced on every flush, generation switch and
	// close, waking blocked TailReaders; tailers holds the attached
	// replication readers so GC retains the generations they still need.
	notify  chan struct{}
	tailers map[*TailReader]struct{}
	// tailFloor is the lowest generation a journal tail may read. A segment
	// switch that follows Detach is a discontinuity: whatever the caller
	// applied while detached was never journaled and exists only in the new
	// generation's snapshot, so a tail must not run from an older segment
	// into the new one as if nothing were missing.
	tailFloor uint64

	// runID is a fresh random identity per Open. A replication position is
	// only meaningful against the journal run that produced it: a restart
	// may have truncated a torn tail, so byte offsets from the previous run
	// can point into different data. Followers echo the run ID and the
	// primary forces a full resync on mismatch (Redis's replication-ID
	// safeguard).
	runID uint64

	lock *DirLock
	stop chan struct{}
	wg   sync.WaitGroup
}

var (
	// ErrClosed reports an operation on a Manager after Close or Kill.
	ErrClosed     = errors.New("persist: manager is closed")
	errCompacting = errors.New("persist: compaction already in progress")
)

// Open scans dir, restores the newest valid snapshot and replays the AOF
// tail through apply, then opens the journal for appending. A torn final
// AOF record is truncated with a warning (like Redis' aof-load-truncated);
// a corrupt snapshot or mid-log corruption is refused with an error.
func Open(opts Options, apply func(Op) error) (*Manager, RecoverStats, error) {
	var stats RecoverStats
	switch opts.Fsync {
	case "":
		opts.Fsync = FsyncEverySec
	case FsyncAlways, FsyncEverySec, FsyncNo:
	default:
		return nil, stats, fmt.Errorf("persist: unknown fsync policy %q (want %s, %s or %s)",
			opts.Fsync, FsyncAlways, FsyncEverySec, FsyncNo)
	}
	if opts.AOFLimit <= 0 {
		opts.AOFLimit = DefaultAOFLimit
	}
	if opts.Dir == "" {
		return nil, stats, errors.New("persist: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = defaultFS
	}
	lock, err := LockDir(opts.Dir)
	if err != nil {
		return nil, stats, err
	}
	m := &Manager{
		opts:    opts,
		fs:      opts.FS,
		lock:    lock,
		stop:    make(chan struct{}),
		notify:  make(chan struct{}),
		tailers: make(map[*TailReader]struct{}),
		runID:   newRunID(),
	}

	gen, snapGen, stats, err := recoverDir(opts.FS, opts.Dir, opts.Logf, true, apply)
	if err != nil {
		lock.Release()
		return nil, stats, err
	}
	m.gen = gen
	m.snapGen = snapGen
	if m.gen == 0 {
		m.gen = 1
	}
	stats.Generation = m.gen
	// Keep everything from the newest snapshot onward: with off-lock
	// compaction a fresh AOF segment can exist before its snapshot lands,
	// so generations between snapGen and gen are still load-bearing.
	m.removeStaleLocked(m.snapGen)

	if err := m.openAOFLocked(m.gen); err != nil {
		lock.Release()
		return nil, stats, err
	}
	if opts.Fsync == FsyncEverySec {
		m.wg.Add(1)
		go m.syncLoop()
	}
	return m, stats, nil
}

// RecoverDir reads the persistent state in dir without opening it for
// appending or taking its lock: the newest snapshot, then every subsequent
// AOF segment, in order, through apply. A torn final record is skipped (but
// not truncated — the files are left untouched). Callers use it to migrate a
// data directory between layouts; mutual exclusion is their problem.
func RecoverDir(dir string, logf func(format string, args ...any), apply func(Op) error) (RecoverStats, error) {
	gen, snapGen, stats, err := recoverDir(defaultFS, dir, logf, false, apply)
	_ = snapGen
	stats.Generation = gen
	return stats, err
}

// recoverDir restores dir's state through apply, returning the highest
// generation seen and the generation of the snapshot loaded (0 when none).
// With truncate set, a torn final AOF record is cut from the file, Redis
// aof-load-truncated style; otherwise it is only skipped.
func recoverDir(fs fault.FS, dir string, logf func(format string, args ...any), truncate bool, apply func(Op) error) (gen, snapGen uint64, stats RecoverStats, err error) {
	snapGens, aofGens, err := scanDir(fs, dir)
	if err != nil {
		return 0, 0, stats, err
	}
	if len(snapGens) > 0 {
		snapGen = snapGens[len(snapGens)-1]
		n, err := loadSnapshotFileFS(fs, filepath.Join(dir, snapName(snapGen)), apply)
		if err != nil {
			return 0, 0, stats, err
		}
		stats.SnapshotOps = n
	}
	gen = snapGen
	for i, g := range aofGens {
		if g < snapGen {
			continue // subsumed by the snapshot
		}
		last := i == len(aofGens)-1
		n, truncated, err := replayAOF(fs, filepath.Join(dir, aofName(g)), last, truncate, logf, apply)
		if err != nil {
			return 0, 0, stats, err
		}
		stats.ReplayedOps += n
		stats.TruncatedBytes += truncated
		if g > gen {
			gen = g
		}
	}
	return gen, snapGen, stats, nil
}

// SnapshotPath returns the path of generation gen's snapshot inside dir,
// for callers staging a directory that a Manager will later Open.
func SnapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, snapName(gen))
}

// SyncDir fsyncs a directory so renames and removals inside it survive a
// crash.
func SyncDir(dir string) error { return syncDir(dir) }

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.opts.Dir }

// Info returns current journal stats.
func (m *Manager) Info() Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Info{
		Generation:   m.gen,
		SnapshotGen:  m.snapGen,
		AOFSize:      m.aofLen + int64(len(m.buf)),
		Fsync:        m.opts.Fsync,
		Compactions:  m.compactions,
		AppendErrors: m.appendErrors,
	}
}

// flushAt is the buffered size at which Append and AppendBatch write the buffer
// out themselves instead of waiting for the caller's Flush. It is checked once
// per call, after the call's last record is encoded, so the records of one
// call are never split across two writes.
const flushAt = 64 << 10

// Append journals one mutation: the record is encoded into the manager's
// buffer and reaches the file — with every record buffered before it, in one
// write — at the next Flush.
//
// The caller owns the flush rule: call Flush before anything that reflects the
// mutation becomes visible outside the process (a reply, a value read back, a
// replication position), and the promise of each fsync policy holds at that
// moment exactly as if every Append had written. Until then a crash loses the
// record, which nobody was told about. BeginCompact, Close and the everysec
// tick flush first; Detach and Kill drop the buffer.
func (m *Manager) Append(op Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.attachedLocked(); err != nil {
		return err
	}
	m.buf = AppendRecord(m.buf, op)
	return m.bufferedLocked()
}

// AppendBatch is Append for a group of ops that must stay together: they are
// encoded back to back, so whichever write carries one carries all of them in
// order (a replica's op and the position record that accounts for it).
func (m *Manager) AppendBatch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.attachedLocked(); err != nil {
		return err
	}
	for _, op := range ops {
		m.buf = AppendRecord(m.buf, op)
	}
	return m.bufferedLocked()
}

// attachedLocked reports why the journal cannot take records or writes right
// now, if it cannot. The caller holds m.mu.
func (m *Manager) attachedLocked() error {
	if m.closed {
		return ErrClosed
	}
	if m.aof == nil {
		// Reopening after a failed compaction; the next Compact heals it.
		m.appendErrors++
		return errors.New("persist: journal segment unavailable")
	}
	return nil
}

// bufferedLocked ends an append: Flush has work now, and a buffer past flushAt
// is written here. The caller holds m.mu.
func (m *Manager) bufferedLocked() error {
	m.idle.Store(false)
	if len(m.buf) < flushAt {
		return nil
	}
	return m.flushLocked()
}

// Flush writes every buffered record with one Write and, under FsyncAlways,
// one Sync, then wakes the journal's tailers. When it returns nil, every
// record appended before the call is in the OS (on disk, under FsyncAlways).
// With nothing buffered it is one atomic load. On a detached or closed
// manager it returns an error and writes nothing.
func (m *Manager) Flush() error {
	if m.idle.Load() {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.attachedLocked(); err != nil {
		return err
	}
	if err := m.flushLocked(); err != nil {
		return err
	}
	m.idle.Store(true)
	return nil
}

// flushLocked writes the buffer to the attached segment. A failed write keeps
// the bytes that did not reach the file, so a later flush continues the
// segment where this one stopped instead of leaving a hole behind a torn
// record; callers that give up on the segment Detach, which drops them. The
// caller holds m.mu and has checked m.aof.
func (m *Manager) flushLocked() error {
	if len(m.buf) == 0 {
		return nil
	}
	n, err := m.aof.Write(m.buf)
	m.aofLen += int64(n)
	if err != nil {
		m.buf = m.buf[:copy(m.buf, m.buf[n:])]
		m.appendErrors++
		return fmt.Errorf("persist: aof append: %w", err)
	}
	if cap(m.buf) > 4*flushAt {
		m.buf = nil // don't pin an outsized buffer past the batch that grew it
	}
	m.buf = m.buf[:0]
	if m.opts.Fsync == FsyncAlways {
		if err := m.aof.Sync(); err != nil {
			m.appendErrors++
			return fmt.Errorf("persist: aof sync: %w", err)
		}
	} else {
		m.dirty = true
	}
	m.broadcastLocked()
	return nil
}

// broadcastLocked wakes every blocked TailReader: the file grew, switched
// generations, or closed. With no tailers attached it is a no-op — a waiter
// can only hold m.notify after TailFrom registered it under this same mutex
// — so servers without followers pay no per-flush channel churn. The
// caller holds m.mu.
func (m *Manager) broadcastLocked() {
	if len(m.tailers) == 0 {
		return
	}
	close(m.notify)
	m.notify = make(chan struct{})
}

// RunID identifies this journal run (this Open). Replication positions are
// scoped to it: a follower holding offsets from a previous run must resync.
func (m *Manager) RunID() uint64 { return m.runID }

// newRunID draws a non-zero random run identity (zero is the follower's
// "no position yet" sentinel).
func newRunID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// NeedsCompaction reports whether the AOF — file plus buffered records — has
// outgrown Options.AOFLimit, or is detached after a failed segment switch
// (compacting again reattaches it).
func (m *Manager) NeedsCompaction() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	return m.aof == nil || m.aofLen+int64(len(m.buf)) > m.opts.AOFLimit
}

// Compaction is an in-flight snapshot-then-truncate cycle started by
// BeginCompact. The journal has already moved to the new generation's
// segment; Commit serializes the snapshot that anchors it.
type Compaction struct {
	m    *Manager
	gen  uint64
	done bool
}

// BeginCompact retires the current journal segment — flush, sync, close, open
// the next generation's segment — and returns a Compaction whose Commit writes
// the anchoring snapshot. The caller holds its store lock across BeginCompact
// (so the segment switch is consistent with the apply order) but calls
// Commit after releasing it: the expensive snapshot serialization then
// happens off the hot path, stalling nothing.
//
// Crash safety: between BeginCompact and Commit the newest snapshot is one
// generation behind the live segment, and recovery replays every AOF segment
// from that snapshot forward, so no acknowledged mutation is lost. A failure
// to open the fresh segment aborts cleanly, appends continuing on the old
// one.
func (m *Manager) BeginCompact() (*Compaction, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.compacting {
		return nil, errCompacting
	}
	// Settle the old segment first: every buffered record belongs to it, and
	// a write or sync failure here aborts cleanly.
	if m.aof != nil {
		if err := m.flushLocked(); err != nil {
			return nil, err
		}
		if err := m.aof.Sync(); err != nil {
			return nil, fmt.Errorf("persist: aof sync: %w", err)
		}
	}
	newGen := m.gen + 1
	old, oldLen := m.aof, m.aofLen
	m.aof = nil
	if err := m.openAOFLocked(newGen); err != nil {
		m.aof, m.aofLen = old, oldLen
		return nil, err
	}
	if old != nil {
		old.Close() // best-effort: already synced above
	} else {
		m.tailFloor = newGen // reattaching after Detach
	}
	m.gen = newGen
	m.compacting = true
	m.broadcastLocked()
	return &Compaction{m: m, gen: newGen}, nil
}

// Commit writes the snapshot for this compaction's generation (emit must
// call write once per live entry, reflecting the state at BeginCompact time)
// and garbage-collects superseded generations. Safe to call without any
// store lock held.
func (c *Compaction) Commit(emit func(write func(Op) error) error) error {
	if c.done {
		return errors.New("persist: compaction already committed")
	}
	c.done = true
	m := c.m
	_, werr := writeSnapshotFileFS(m.fs, filepath.Join(m.opts.Dir, snapName(c.gen)), emit)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compacting = false
	if werr != nil {
		return werr
	}
	m.snapGen = c.gen
	m.compactions++
	m.removeStaleLocked(c.gen)
	return syncDirFS(m.fs, m.opts.Dir)
}

// Compact runs BeginCompact and Commit back to back: a synchronous
// snapshot-then-truncate for callers that already hold their store lock and
// accept the stall (shutdown snapshots, tests).
func (m *Manager) Compact(emit func(write func(Op) error) error) error {
	c, err := m.BeginCompact()
	if err != nil {
		return err
	}
	return c.Commit(emit)
}

// Detach closes and drops the current journal segment handle — and whatever
// records were still buffered for it — without closing the manager: appends
// and flushes start failing fast ("journal segment unavailable")
// instead of hammering a broken disk, and NeedsCompaction reports true so the
// next compaction opens a fresh segment. A degraded shard calls this when the
// disk starts returning errors; the manager itself stays usable so the
// prober's healing compaction can reattach it.
func (m *Manager) Detach() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aof != nil {
		m.aof.Close() // best effort: the handle is already suspect
		m.aof = nil
		m.aofLen = 0
	}
	m.buf = m.buf[:0]
	m.idle.Store(false)
}

// Probe tests whether the data directory can take durable writes again:
// create a scratch file, write, fsync, remove, all through the manager's FS
// so injected faults govern the verdict. The prober calls this before
// attempting a healing compaction — a cheap end-to-end disk check that
// exercises exactly the syscalls a journal append needs.
func (m *Manager) Probe() error {
	m.mu.Lock()
	fs, dir := m.fs, m.opts.Dir
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	path := filepath.Join(dir, ".probe")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: probe open: %w", err)
	}
	if _, err := f.Write([]byte("camp-probe")); err != nil {
		f.Close()
		fs.Remove(path)
		return fmt.Errorf("persist: probe write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(path)
		return fmt.Errorf("persist: probe sync: %w", err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(path)
		return fmt.Errorf("persist: probe close: %w", err)
	}
	if err := fs.Remove(path); err != nil {
		return fmt.Errorf("persist: probe remove: %w", err)
	}
	return nil
}

// Close flushes and syncs the journal and stops the background sync loop.
// It is idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.idle.Store(false)
	m.broadcastLocked()
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.lock.Release()
	if m.aof == nil {
		return nil
	}
	first := m.flushLocked()
	if err := m.aof.Sync(); err != nil && first == nil {
		first = err
	}
	if err := m.aof.Close(); err != nil && first == nil {
		first = err
	}
	m.aof = nil
	return first
}

// Kill releases the manager without flushing or syncing anything, simulating
// a crash for recovery tests and demos: buffered records are gone with the
// process, and whatever the fsync policy already put on disk is all a restart
// will see. Orderly shutdown is Close.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.idle.Store(false)
	m.broadcastLocked()
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = nil
	if m.aof != nil {
		m.aof.Close()
		m.aof = nil
	}
	// A real crash drops the flock with the process; simulate that too so a
	// recovering server can take the directory over.
	m.lock.Release()
}

func (m *Manager) syncLoop() {
	defer m.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.mu.Lock()
			if m.aof != nil {
				// A record nobody flushed (no caller has made it visible yet)
				// still goes out within the second the policy promises.
				if err := m.flushLocked(); err != nil {
					m.logf("persist: background aof flush: %v", err)
				} else if m.dirty {
					if err := m.aof.Sync(); err != nil {
						m.appendErrors++
						m.logf("persist: background aof sync: %v", err)
					} else {
						m.dirty = false
					}
				}
			}
			m.mu.Unlock()
		}
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d.camp", gen) }
func aofName(gen uint64) string  { return fmt.Sprintf("aof-%08d.log", gen) }

func (m *Manager) snapPath(gen uint64) string {
	return filepath.Join(m.opts.Dir, snapName(gen))
}

func (m *Manager) aofPath(gen uint64) string {
	return filepath.Join(m.opts.Dir, aofName(gen))
}

// openAOFLocked opens (creating if needed) the segment for gen in append
// mode. A segment shorter than its header — a crash between creation and the
// header sync — is reset to a fresh header.
func (m *Manager) openAOFLocked(gen uint64) error {
	path := m.aofPath(gen)
	f, err := m.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open aof: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: stat aof: %w", err)
	}
	size := st.Size()
	if size < fileHeaderLen {
		if size != 0 {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return fmt.Errorf("persist: reset torn aof header: %w", err)
			}
		}
		if _, err := f.Write(appendFileHeader(nil, aofMagic, AOFVersion)); err != nil {
			f.Close()
			return fmt.Errorf("persist: write aof header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: sync aof header: %w", err)
		}
		size = fileHeaderLen
	}
	m.aof = f
	m.aofLen = size
	return nil
}

// replayAOF re-applies one segment. Only the final segment may be torn: its
// damaged tail is dropped with a warning, and — with truncate set — cut from
// the file. Corruption anywhere else — a failed CRC or a tear in a non-final
// segment — refuses recovery.
func replayAOF(fs fault.FS, path string, last, truncate bool, logf func(format string, args ...any), apply func(Op) error) (ops int, truncated int64, err error) {
	warnf := func(format string, args ...any) {
		if logf != nil {
			logf(format, args...)
		}
	}
	cut := func(n int64) error {
		if !truncate {
			return nil
		}
		return fs.Truncate(path, n)
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: read aof: %w", err)
	}
	name := filepath.Base(path)
	if len(data) < fileHeaderLen {
		// Torn before the header finished; nothing was journaled.
		if !last || len(data) == 0 {
			if len(data) == 0 {
				return 0, 0, nil
			}
			return 0, 0, fmt.Errorf("%w: aof %s header truncated", ErrCorruptRecord, name)
		}
		warnf("persist: aof %s: truncating torn %d-byte header", name, len(data))
		return 0, int64(len(data)), cut(0)
	}
	if _, err := checkFileHeader(data, aofMagic, AOFVersion, "aof"); err != nil {
		return 0, 0, fmt.Errorf("persist: aof %s: %w", name, err)
	}
	off := fileHeaderLen
	for off < len(data) {
		op, used, derr := DecodeRecord(data[off:])
		if derr != nil {
			if last && errors.Is(derr, ErrShortRecord) {
				// A torn final record: everything before off was
				// intact, so drop the tail and keep serving.
				tail := int64(len(data) - off)
				warnf("persist: aof %s: truncating torn final record (%d bytes) after %d ops",
					name, tail, ops)
				return ops, tail, cut(int64(off))
			}
			return ops, 0, fmt.Errorf("persist: aof %s: record %d: %w", name, ops, derr)
		}
		if err := apply(op); err != nil {
			return ops, 0, fmt.Errorf("persist: aof %s: apply record %d: %w", name, ops, err)
		}
		off += used
		ops++
	}
	return ops, 0, nil
}

// removeStaleLocked deletes snapshot and AOF files older than keepGen.
// Attached replication tails lower the floor: a follower mid-stream keeps its
// remaining segments alive so a compaction never forces it into a full
// resync.
func (m *Manager) removeStaleLocked(keepGen uint64) {
	for tr := range m.tailers {
		if tr.gen < keepGen {
			keepGen = tr.gen
		}
	}
	snaps, aofs, err := scanDir(m.fs, m.opts.Dir)
	if err != nil {
		return
	}
	for _, g := range snaps {
		if g < keepGen {
			m.fs.Remove(m.snapPath(g))
		}
	}
	for _, g := range aofs {
		if g < keepGen {
			m.fs.Remove(m.aofPath(g))
		}
	}
}

// scanDir lists snapshot and AOF generations present in dir, ascending.
func scanDir(fs fault.FS, dir string) (snaps, aofs []uint64, err error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: read dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		var g uint64
		switch name := e.Name(); {
		case parseGen(name, "snap-", ".camp", &g):
			snaps = append(snaps, g)
		case parseGen(name, "aof-", ".log", &g):
			aofs = append(aofs, g)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(aofs, func(i, j int) bool { return aofs[i] < aofs[j] })
	return snaps, aofs, nil
}

func parseGen(name, prefix, suffix string, out *uint64) bool {
	if len(name) != len(prefix)+8+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	var g uint64
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return false
		}
		g = g*10 + uint64(c-'0')
	}
	if g == 0 {
		return false
	}
	*out = g
	return true
}
