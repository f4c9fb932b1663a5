package kvserver

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"camp/internal/kvbuf"
	"camp/internal/metrics"
	"camp/internal/persist"
)

// serverVersion is the identity the version command and the stats
// version line report.
const serverVersion = "camp-kvs/1.0"

// Protocol replies as byte slices: handlers write them straight to the
// connection buffer, so the steady-state reply path performs no formatting
// and no allocation.
var (
	replyStored       = []byte("STORED\r\n")
	replyNotStored    = []byte("NOT_STORED\r\n")
	replyNotFound     = []byte("NOT_FOUND\r\n")
	replyDeleted      = []byte("DELETED\r\n")
	replyTouched      = []byte("TOUCHED\r\n")
	replyOK           = []byte("OK\r\n")
	replyEnd          = []byte("END\r\n")
	replyError        = []byte("ERROR\r\n")
	replyVersion      = []byte("VERSION " + serverVersion + "\r\n")
	replyOOM          = []byte("SERVER_ERROR out of memory storing object\r\n")
	replyTooLarge     = []byte("SERVER_ERROR object too large for cache\r\n")
	replyBadDataChunk = []byte("CLIENT_ERROR bad data chunk\r\n")
	replyNonNumeric   = []byte("CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
	replyBadDelta     = []byte("CLIENT_ERROR invalid numeric delta argument\r\n")
	replyBadExptime   = []byte("CLIENT_ERROR invalid exptime argument\r\n")
	replyGetNoKey     = []byte("CLIENT_ERROR get requires a key\r\n")
	replyLineTooLong  = []byte("CLIENT_ERROR line too long\r\n")
	replyDebugNoKey   = []byte("CLIENT_ERROR debug requires a key\r\n")
	replyReadOnly     = []byte("SERVER_ERROR replica is read-only\r\n")
	replyOverQuota    = []byte("SERVER_ERROR tenant over quota\r\n")
	replyBadReplconf  = []byte("CLIENT_ERROR bad replconf command\r\n")
	replyBadSync      = []byte("CLIENT_ERROR bad sync command\r\n")
	replyBadReplica   = []byte("CLIENT_ERROR bad replica command (want promote or status)\r\n")
	replyNoJournal    = []byte("CLIENT_ERROR primary is not journaling (persistence with AOF required)\r\n")
	replyNotPrimary   = []byte("CLIENT_ERROR replica cannot serve syncs (chained replication unsupported)\r\n")
	replySyncFailed   = []byte("SERVER_ERROR sync failed\r\n")
)

// shard is one independent slice of the server: its own store (policy,
// allocator, item table), its own IQ miss table, its own mutex, and — when
// persistence is on — its own journal and snapshot generations under
// data-dir/shard-NNN/. Every command touches exactly one shard (flush_all
// and stats walk all of them), so N shards serve N cores without sharing a
// lock: the paper's §4.1 vertical-scaling recipe applied to the network
// server.
type shard struct {
	srv *Server

	mu       sync.Mutex
	store    *store
	missedAt map[string]int64

	// replPos is this shard's durable replication position — the primary
	// journal (run, generation, offset) every applied op up to now came
	// from. Guarded by mu so it moves atomically with the ops it describes:
	// the follower writes it together with each applied op (one position
	// record in the same journal batch), compaction snapshots carry the
	// latest one across journal truncation, and recovery seeds it back so a
	// restarted follower resumes with CONTINUE instead of a full resync.
	// Zero (RunID 0) on primaries, on followers that have not yet
	// bootstrapped, and on followers without an AOF to persist it in.
	// It is only ever set after the journal accepted the record that holds
	// it, so in memory it may lead the file by at most one buffer: every
	// reader outside the process sees it after flushJournals, and it is
	// snapshotted only after BeginCompact's flush succeeded. A failed flush
	// clears it (markDivergedLocked).
	replPos persist.Position
	// replDiverged marks the local journal as no longer a faithful prefix
	// of the applied stream: an op+position append failed, so an op may be
	// missing from the middle of the journal. From then on positions are
	// neither persisted nor advanced — a restart falls back to one full
	// resync instead of CONTINUE-ing past the gap into silent divergence.
	// A successful FULLSYNC bootstrap (whose flush+entries batch rewrites
	// the journaled state wholesale) heals it. Guarded by mu.
	replDiverged bool

	mgr *persist.Manager // nil without persistence
	// journaled says journalLocked has buffered records since flushJournals
	// last asked this shard's journal whether it needs compacting.
	journaled atomic.Bool

	// degraded marks this shard as serving cache-only after a persistence
	// failure: the journal handle has been dropped, mutations skip journaling,
	// replication positions freeze, and the background prober (health.go) owns
	// the way back — a successful disk probe followed by a clean compaction
	// snapshot. Atomic so stats and metrics read it without sh.mu.
	degraded atomic.Bool

	// compactMu serializes snapshot cycles on this shard (the background
	// compactor vs. forced Snapshot/flush_all). It is never taken on the
	// request path.
	compactMu sync.Mutex

	// latHist times every command routed to this shard; lockHist samples
	// how long the mutation path holds mu. Embedded (not pointers) and
	// atomic inside, so recording is two adds with no indirection and
	// scrapes never touch mu.
	latHist  metrics.Histogram
	lockHist metrics.Histogram
}

// shardIndex routes a key to its shard with FNV-1a, accepting the key in
// either its wire []byte form or as a string. The hash must be stable
// across restarts — each shard recovers only its own journal, so the routing
// that wrote a key must find it again after a reboot — which rules out the
// seeded maphash the in-process camp.Cache shards with.
func shardIndex[K ~string | ~[]byte](key K, n int) int {
	if n == 1 {
		return 0
	}
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

func (s *Server) shardFor(key string) *shard {
	return s.shards[shardIndex(key, len(s.shards))]
}

func (s *Server) shardForBytes(key []byte) *shard {
	return s.shards[shardIndex(key, len(s.shards))]
}

// missTableMax bounds the IQ miss table so an attacker cannot balloon it
// with unique keys; missTableProbes is how many entries a full table checks
// for staleness per new miss; missTableTTL is when a pending miss goes
// stale (the matching set never came).
const (
	missTableMax    = 1 << 16
	missTableProbes = 8
	missTableTTL    = time.Minute
)

// recordMissLocked notes a get miss for IQ cost derivation. A full table
// probes a bounded handful of entries for staleness — Go's randomized map
// iteration starts each probe run at a fresh bucket, so successive misses
// walk the whole table incrementally. The previous full-table sweep here
// was O(64k) under sh.mu on the get path: one unlucky get could stall its
// shard for milliseconds. The caller holds sh.mu.
func (sh *shard) recordMissLocked(key string, now int64) {
	if len(sh.missedAt) >= missTableMax {
		probes := missTableProbes
		for k, at := range sh.missedAt {
			if probes <= 0 {
				break
			}
			probes--
			if now-at > int64(missTableTTL) {
				delete(sh.missedAt, k)
			}
		}
		if len(sh.missedAt) >= missTableMax {
			return // still full of recent misses; drop this one
		}
	}
	sh.missedAt[key] = now
}

// expirySweepProbes is how many items each mutation probes for lazy expiry
// (see store.sweepExpired).
const expirySweepProbes = 4

// storeLocked applies one storage command and returns the protocol reply.
// The index probe hashes the wire key in place. In byte mode kv is the new
// item's buffer, the payload already in its tail; under a copying layout kv
// is nil and value is scratch. The caller holds sh.mu.
func (sh *shard) storeLocked(cmd verbID, keyBytes, kv, value []byte, flags uint32, ttl, cost, now int64) []byte {
	st := sh.store
	existing, exists := resident(st, keyBytes, now)
	switch cmd {
	case verbAdd:
		if exists {
			return replyNotStored
		}
	case verbReplace:
		if !exists {
			return replyNotStored
		}
	case verbAppend, verbPrepend:
		if !exists {
			return replyNotStored
		}
		// Concatenation keeps the existing flags and cost; the payload
		// just grows, built while the lock pins the old bytes. The handler's
		// size gate saw only the delta; the combined value must honor the
		// limit too. Nothing is journaled and the existing value stays.
		old := st.lay.value(existing)
		if int64(len(old)+len(value)) > sh.srv.cfg.MaxValueBytes {
			return replyTooLarge
		}
		if cmd == verbAppend {
			kv, value = st.setBuf(existing.kv, old, value)
		} else {
			kv, value = st.setBuf(existing.kv, value, old)
		}
		flags = existing.flags
		if cost == 0 {
			cost = existing.node.Cost
		}
	}
	if kv == nil && exists {
		kv = existing.kv
	} else if kv == nil {
		kv = kvbuf.New(keyBytes, 0)
	}
	key := kvbuf.Key(kv)
	if cost == 0 && !sh.srv.cfg.DisableIQ {
		if at, ok := sh.missedAt[key]; ok {
			cost = (now - at) / int64(time.Microsecond)
			if cost < 1 {
				cost = 1
			}
			delete(sh.missedAt, key)
		}
	}
	if cost == 0 {
		cost = 1
	}
	if !sh.setLocked(kv, value, flags, expiryFrom(ttl, now), cost, exists) {
		return replyOOM
	}
	return replyStored
}

// setLocked applies one set (kv and value as setAbsPrio takes them) and
// journals its outcome. A refused set drops any existing version of the key;
// that removal is journaled too, or recovery and replicas would resurrect
// the old value. The caller holds sh.mu.
func (sh *shard) setLocked(kv, value []byte, flags uint32, expires, cost int64, existed bool) bool {
	key := kvbuf.Key(kv)
	if !sh.store.setAbsPrio(kv, value, flags, expires, cost, 0, 0, false) {
		sh.srv.counters.setRejected.Add(1)
		if existed {
			sh.journalLocked(persist.Op{Kind: persist.KindDelete, Key: key})
		}
		return false
	}
	sh.journalLocked(persist.Op{
		Kind:    persist.KindSet,
		Key:     key,
		Value:   value,
		Flags:   flags,
		Expires: expires,
		Size:    sh.store.itemSize(key, value),
		Cost:    cost,
	})
	return true
}

// arithLocked applies incr/decr. A nil reply means success and val is the
// new value for the caller to format; otherwise reply is the error. The
// caller holds sh.mu.
func (sh *shard) arithLocked(incr bool, key []byte, delta uint64, now int64) (val uint64, reply []byte) {
	it, ok := lookup(sh.store, key, now)
	if !ok {
		return 0, replyNotFound
	}
	cur, perr := strconv.ParseUint(string(sh.store.lay.value(it)), 10, 64)
	if perr != nil {
		return 0, replyNonNumeric
	}
	if incr {
		cur += delta // wraps at 2^64, as memcached does
	} else if cur < delta {
		cur = 0 // decr clamps at zero
	} else {
		cur -= delta
	}
	// Arithmetic keeps the item's flags, expiration and cost, as memcached
	// does; only the payload changes.
	var digits [20]byte
	kv, value := sh.store.setBuf(it.kv, strconv.AppendUint(digits[:0], cur, 10))
	if !sh.setLocked(kv, value, it.flags, it.expires, it.node.Cost, true) {
		return 0, replyOOM
	}
	return cur, nil
}

// journalLocked buffers mutations in this shard's AOF as one group, adjacent
// and in order. The caller holds sh.mu. They reach the file at the next flush
// point (Server.flushJournals) — before anything that reflects them leaves the
// process. ok reports whether the journal took them (vacuously true without
// one, false while degraded); the replication path uses it to stop trusting
// positions after a failed append. A journal failure degrades the shard to
// cache-only operation (enterDegraded) instead of failing the client op: the
// server keeps serving, the error surfaces through persist_errors and
// persist_degraded, and the prober re-enters healthy once the disk recovers.
func (sh *shard) journalLocked(ops ...persist.Op) (ok bool) {
	if sh.mgr == nil {
		return true
	}
	if sh.degraded.Load() {
		return false
	}
	if err := sh.mgr.AppendBatch(ops); err != nil {
		sh.enterDegraded("journal append", err)
		return false
	}
	sh.journaled.Store(true)
	return true
}

// flushJournals is the journal's flush rule: every shard's buffered records
// are written (and, under -fsync always, synced) before the calling goroutine
// lets a byte out of the process or waits for one. Every shard, not the ones
// the caller dirtied: connection B's get may have read what connection A's
// still-buffered set stored, and B's reply must not leave ahead of A's
// record. An idle journal costs one atomic load; a flush that wrote asks once
// whether the journal needs compacting; a failed one is a failed append found
// late — on a follower a gap, so its position goes. Callers hold no shard lock.
func (s *Server) flushJournals() {
	for _, sh := range s.shards {
		if sh.mgr == nil || sh.degraded.Load() {
			continue
		}
		if err := sh.mgr.Flush(); err != nil {
			if s.repl != nil {
				sh.mu.Lock()
				sh.markDivergedLocked()
				sh.mu.Unlock()
			}
			sh.enterDegraded("journal flush", err)
		} else if sh.journaled.Load() {
			sh.journaled.Store(false)
			if sh.mgr.NeedsCompaction() {
				s.requestCompact(sh)
			}
		}
	}
}

// canPersistPosLocked reports whether this shard can durably record
// replication positions: there is a healthy AOF to put them in, and the
// journal is still a faithful prefix of the applied stream. The caller holds
// sh.mu.
func (sh *shard) canPersistPosLocked() bool {
	return sh.mgr != nil && !sh.replDiverged && !sh.degraded.Load()
}

// enterDegraded moves the shard to cache-only operation after a persistence
// failure: the broken journal handle is dropped (so nothing keeps writing
// into a sick disk, and stray appends fail fast instead of blocking),
// mutations stop journaling, replication positions freeze, and the server
// keeps serving all traffic from memory. The background prober owns the way
// back to healthy. Callable with or without sh.mu held — it touches only
// atomics and the manager's own lock.
func (sh *shard) enterDegraded(what string, err error) {
	sh.srv.counters.persistErrors.Add(1)
	if sh.degraded.CompareAndSwap(false, true) {
		sh.srv.logf("kvserver: %s: %v — shard degraded, serving cache-only", what, err)
		if sh.mgr != nil {
			sh.mgr.Detach()
		}
		sh.srv.wakeProber()
		return
	}
	sh.srv.logf("kvserver: %s (already degraded): %v", what, err)
}

// markDivergedLocked records a journal gap: an append on the replication
// apply path failed, so the journal may be missing an applied op. The
// persisted position must not advance past the gap — clear it and stop
// persisting, forcing the next restart into one clean full resync. The
// caller holds sh.mu.
func (sh *shard) markDivergedLocked() {
	sh.replDiverged = true
	sh.replPos = persist.Position{}
}

// compact runs one snapshot-then-truncate cycle on this shard. Degraded
// shards are skipped: the prober owns re-entry to healthy (runCompaction
// with heal=true), and compacting a broken disk on the size trigger or a
// forced Snapshot would just churn errors.
func (sh *shard) compact() {
	if sh.degraded.Load() {
		return
	}
	sh.runCompaction(false)
}

// runCompaction performs one snapshot-then-truncate cycle. The shard lock is
// held only for the journal segment switch and the entry copy-out;
// serializing and writing the snapshot — the part proportional to the data —
// happens unlocked, so a snapshot never stalls the shard for the duration of
// the disk write, and never stalls the other shards at all.
//
// heal=true is the prober's re-entry path for a degraded shard: the degraded
// flag clears immediately after BeginCompact succeeds, while sh.mu is still
// held, so every mutation applied after the segment switch journals to the
// new segment and the snapshot+tail recovery invariant holds with no gap.
// (Clearing after Commit instead would lose every op applied during the
// unlocked snapshot write.) Any failure — segment switch or snapshot commit —
// degrades the shard (again); a server shutting down (persist.ErrClosed)
// does not.
func (sh *shard) runCompaction(heal bool) error {
	if sh.mgr == nil {
		return nil
	}
	sh.compactMu.Lock()
	defer sh.compactMu.Unlock()
	sh.mu.Lock()
	c, err := sh.mgr.BeginCompact()
	if err != nil {
		sh.mu.Unlock()
		if !errors.Is(err, persist.ErrClosed) {
			sh.enterDegraded("snapshot begin", err)
		}
		return err
	}
	if heal {
		sh.degraded.Store(false)
	}
	ops := sh.store.collectOps()
	// A follower's position must survive the journal truncation this
	// compaction performs — its position records live in the segments being
	// retired — so the snapshot carries the latest one. Read under the same
	// lock as the entry copy-out: the position describes exactly the ops in
	// this snapshot.
	if pos := sh.replPos; pos.RunID != 0 {
		ops = append(ops, persist.Op{Kind: persist.KindPosition, Pos: pos})
	}
	sh.mu.Unlock()
	if err := c.Commit(emitOps(ops)); err != nil {
		if !errors.Is(err, persist.ErrClosed) {
			sh.enterDegraded("snapshot commit", err)
		}
		return err
	}
	sh.srv.counters.persistSnapshots.Add(1)
	return nil
}
