// Per-shard AOF replication.
//
// The primary streams each shard's append-only journal to followers over the
// same TCP port and text protocol the cache speaks, with a minimal
// REPLCONF/SYNC-style handshake:
//
//	follower → primary:  replconf shards <n>\r\n
//	primary → follower:  REPLOK <n>\r\n
//	follower → primary:  sync <shard> <gen> <offset> <runid>\r\n
//	primary → follower:  CONTINUE <gen> <offset> <runid>\r\n
//	                  or FULLSYNC <snapgen> <snapbytes> <runid>\r\n +
//	                     <snapbytes> of raw snapshot file, then the binary
//	                     frame stream
//
// <runid> scopes a position to one journal run (one persist.Manager Open):
// a primary restart may have truncated a torn tail, making old byte offsets
// point into different data, so a position carrying a stale run ID is
// answered with a full resync rather than silently diverging.
//
// "sync <shard> 0 0 0" always requests a full resync. After the reply the
// connection becomes a one-way binary frame feed (internal/persist's
// StreamWriter/StreamReader): journal records byte-identical to the
// primary's segment files, generation switches when compaction retires a
// segment, and pings while the journal is idle. Because the follower applies
// the records through its own configured eviction policy — the same way
// local recovery replays them — CAMP/GDS costs and queue placement
// replicate, not just bytes, and a promoted follower serves with a warm,
// cost-faithful cache.
//
// One replication goroutine runs per shard on the follower (the journals are
// per-shard, so the streams are parallel by construction), each tracking its
// own (generation, offset) position for cheap CONTINUE reconnects. Promotion
// is explicit: "replica promote" stops the streams and lifts the read-only
// gate.
package kvserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"camp/internal/persist"
	"camp/internal/proto"
)

// feedStat tracks one live sync feed's stream position for the
// replication-lag gauges. gen and off are atomics: the feed goroutine
// stores them per journal event while scrapes load them.
type feedStat struct {
	shard int
	seq   uint64
	label string // seq preformatted for the Prometheus feed label
	gen   atomic.Uint64
	off   atomic.Int64
}

// registerFeed adds a live feed for shard. The sequence number is unique
// for the server's lifetime, so a reconnecting follower appears as a new
// series instead of silently aliasing the old one.
func (s *Server) registerFeed(shard int) *feedStat {
	s.feedMu.Lock()
	s.feedSeq++
	f := &feedStat{shard: shard, seq: s.feedSeq, label: strconv.FormatUint(s.feedSeq, 10)}
	s.feeds[f] = struct{}{}
	s.feedMu.Unlock()
	return f
}

func (s *Server) unregisterFeed(f *feedStat) {
	s.feedMu.Lock()
	delete(s.feeds, f)
	s.feedMu.Unlock()
}

// eachFeed visits the live feeds in registration order (stable scrape
// output) without holding feedMu during the callbacks.
func (s *Server) eachFeed(fn func(*feedStat)) {
	s.feedMu.Lock()
	feeds := make([]*feedStat, 0, len(s.feeds))
	for f := range s.feeds {
		feeds = append(feeds, f)
	}
	s.feedMu.Unlock()
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].seq < feeds[j].seq })
	for _, f := range feeds {
		fn(f)
	}
}

// feedLagBytes estimates how far a feed trails its shard's journal head.
// Within the head generation it is exact; a feed still draining an older
// generation reports the whole head segment (a lower bound — the retired
// segments' remainders aren't tracked), which is the honest signal that it
// is at least a compaction behind.
func (s *Server) feedLagBytes(f *feedStat) int64 {
	mgr := s.shards[f.shard].mgr
	if mgr == nil {
		return 0
	}
	info := mgr.Info()
	if f.gen.Load() == info.Generation {
		if lag := info.AOFSize - f.off.Load(); lag > 0 {
			return lag
		}
		return 0
	}
	return info.AOFSize
}

const (
	// replTailPoll is how long the primary's feed waits for new journal
	// records before emitting a keepalive ping; the follower's read timeout
	// is a few multiples of it.
	replTailPoll = time.Second
	// replDialTimeout bounds the follower's dial + handshake.
	replDialTimeout = 5 * time.Second
	// replReadTimeout is the follower's idle read timeout, refreshed per
	// socket read; the primary pings every replTailPoll, so silence this
	// long means a dead peer — while an arbitrarily large record or
	// snapshot keeps streaming as long as chunks keep arriving.
	replReadTimeout = 5 * time.Second
	// replBackoffMin/Max bound the reconnect backoff.
	replBackoffMin = 50 * time.Millisecond
	replBackoffMax = 2 * time.Second
	// replStaleMax is how many consecutive post-handshake stream failures
	// without progress a follower tolerates before abandoning its position
	// and requesting a full resync — self-healing for a position that parses
	// but lands mid-record.
	replStaleMax = 3
)

// idleConn turns the absolute socket read deadline into an idle timeout:
// every Read refreshes it first, so what bounds a replication transfer is
// progress, not total size — a dead peer still fails within the timeout, but
// a multi-gigabyte snapshot over a slow link streams for as long as bytes
// keep moving. (The primary's side is countedConn.Write: a deadline per write.)
// It is also the follower's journal flush point: the ops and positions applied
// from the last read reach the file, in order and in one write, before the
// link waits on the primary again.
type idleConn struct {
	net.Conn
	srv *Server
}

func (c idleConn) Read(p []byte) (int, error) {
	c.srv.flushJournals()
	if err := c.Conn.SetReadDeadline(time.Now().Add(replReadTimeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// ---------------------------------------------------------------------------
// Primary side: replconf / sync handlers.

// handleReplconf validates a follower's topology announcement. Replication
// streams are per-shard, so the shard counts must match exactly; and the
// feed is the journal, so the primary must be journaling at all.
func (s *Server) handleReplconf(args [][]byte, cs *connState) error {
	if len(args) != 2 || string(args[0]) != "shards" {
		return cs.send(replyBadReplconf)
	}
	n, ok := proto.ParseUint(args[1])
	if !ok {
		return cs.send(replyBadReplconf)
	}
	if s.cfg.Persist == nil {
		return cs.send(replyNoJournal)
	}
	if int(n) != len(s.shards) {
		cs.out = appendClientError(cs.out[:0], "shard count mismatch: primary has",
			strconv.Itoa(len(s.shards)))
		return cs.send(cs.out)
	}
	out := append(cs.out[:0], "REPLOK "...)
	out = strconv.AppendInt(out, int64(len(s.shards)), 10)
	out = append(out, '\r', '\n')
	cs.out = out
	return cs.send(out)
}

// parseSyncArgs parses "sync <shard> <gen> <offset> <runid>" arguments. gen
// 0 with offset 0 requests a full resync; any other malformed shape
// (negative offset, bad integers, shard out of range) is rejected.
func parseSyncArgs(args [][]byte, shards int) (idx int, gen uint64, off int64, runID uint64, ok bool) {
	if len(args) != 4 {
		return 0, 0, 0, 0, false
	}
	i, okIdx := proto.ParseUint(args[0])
	g, okGen := proto.ParseUint(args[1])
	o, okOff := proto.ParseInt(args[2])
	r, okRun := proto.ParseUint(args[3])
	if !okIdx || !okGen || !okOff || !okRun || i >= uint64(shards) || o < 0 {
		return 0, 0, 0, 0, false
	}
	if g == 0 && o != 0 {
		return 0, 0, 0, 0, false
	}
	return int(i), g, o, r, true
}

// handleSync turns the connection into a replication feed for one shard. It
// never returns to the command loop: the stream runs until the follower
// disconnects, the server stops, or the journal errors, and the connection
// closes with it; from here on it is not a client (Server.clients).
func (s *Server) handleSync(args [][]byte, cs *connState) error {
	if s.readOnly.Load() {
		// Chained replication is not supported: a replica's journal lags its
		// own primary, so serving syncs from it would fan out staleness.
		cs.w.Write(replyNotPrimary)
		return errCloseConn
	}
	if s.cfg.Persist == nil {
		cs.w.Write(replyNoJournal)
		return errCloseConn
	}
	idx, gen, off, runID, ok := parseSyncArgs(args, len(s.shards))
	if !ok {
		cs.w.Write(replyBadSync)
		return errCloseConn
	}
	cs.feed = true
	s.clients.Done()
	mgr := s.shards[idx].mgr
	// All feed writes — reply line, snapshot bytes, frames — go through the
	// connection's own writer: behind any reply a pipelined follower is still
	// owed (REPLOK before CONTINUE), and under countedConn's per-write
	// deadline, so a wedged follower stalls the feed for connWriteTimeout.
	var (
		tr       *persist.TailReader
		announce bool
	)
	// A position from another journal run is meaningless here (a restart may
	// have truncated the tail those offsets were measured against): force a
	// full resync instead of continuing into silent divergence.
	if gen > 0 && runID == mgr.RunID() {
		t, err := mgr.TailFrom(gen, off)
		switch {
		case err == nil:
			tr = t
			cs.out = appendSyncLine(cs.out[:0], "CONTINUE ", gen, off, mgr.RunID())
			if _, werr := cs.w.Write(cs.out); werr != nil {
				t.Close()
				return werr
			}
		case !errors.Is(err, persist.ErrStalePosition):
			s.logf("kvserver: sync shard %d: %v", idx, err)
			cs.w.Write(replySyncFailed)
			return errCloseConn
		}
		// A stale position falls through to a full resync, exactly as if the
		// follower had asked for one.
	}
	if tr == nil {
		fs, err := mgr.FullSync()
		if err != nil {
			s.logf("kvserver: full sync shard %d: %v", idx, err)
			cs.w.Write(replySyncFailed)
			return errCloseConn
		}
		cs.out = appendSyncLine(cs.out[:0], "FULLSYNC ", fs.SnapGen, fs.SnapSize, mgr.RunID())
		_, werr := cs.w.Write(cs.out)
		if werr == nil && fs.Snapshot != nil {
			_, werr = io.Copy(cs.w, fs.Snapshot)
		}
		if werr != nil {
			fs.Close()
			return werr
		}
		if fs.Snapshot != nil {
			fs.Snapshot.Close()
		}
		tr = fs.Tail
		announce = true // the follower learns its start generation from the first frame
		s.counters.replFullSyncsServed.Add(1)
	}
	defer tr.Close()
	s.counters.replSyncsServed.Add(1)
	feed := s.registerFeed(idx)
	defer s.unregisterFeed(feed)
	err := s.streamJournal(tr, cs.w, announce, feed)
	if err != nil && !errors.Is(err, persist.ErrClosed) {
		s.logf("kvserver: sync feed shard %d ended: %v", idx, err)
	}
	return errCloseConn
}

// appendSyncLine renders a sync reply, "<verb><a> <b> <runID>\r\n" — the
// line parseSyncReply reads.
func appendSyncLine(out []byte, verb string, a uint64, b int64, runID uint64) []byte {
	out = strconv.AppendUint(append(out, verb...), a, 10)
	out = strconv.AppendInt(append(out, ' '), b, 10)
	out = strconv.AppendUint(append(out, ' '), runID, 10)
	return append(out, '\r', '\n')
}

// streamJournal pumps tail events into the connection as stream frames,
// flushing whenever the journal has nothing ready and pinging while it stays
// idle. Returns when the write side fails (follower gone) or the journal is
// corrupt; or, once the server stops (stopBg) or the manager closes, with
// persist.ErrClosed after streaming the journal to its end and flushing it.
func (s *Server) streamJournal(tr *persist.TailReader, w *bufio.Writer, announce bool, feed *feedStat) error {
	sw := persist.NewStreamWriter(w)
	if announce {
		if err := sw.GenSwitch(tr.Gen()); err != nil {
			return err
		}
	}
	feed.gen.Store(tr.Gen())
	feed.off.Store(tr.Off())
	stop := s.stopBg
	for {
		ev, err := tr.Next(0, nil)
		if errors.Is(err, persist.ErrTailTimeout) {
			if ferr := sw.Flush(); ferr != nil {
				return ferr
			}
			if stop == nil {
				return persist.ErrClosed // stopped, and the tail is drained
			}
			ev, err = tr.Next(replTailPoll, stop)
			switch {
			case errors.Is(err, persist.ErrTailTimeout):
				if perr := sw.Ping(); perr != nil {
					return perr
				}
				if ferr := sw.Flush(); ferr != nil {
					return ferr
				}
				continue
			case errors.Is(err, persist.ErrClosed):
				stop = nil // stream what the journal still holds, then end
				continue
			}
		}
		if err != nil {
			return err
		}
		if ev.Record == nil {
			err = sw.GenSwitch(ev.Gen)
		} else {
			err = sw.Record(ev.Record)
		}
		if err != nil {
			return err
		}
		// The TailReader already advanced past the event; publish the new
		// position for the lag gauges (two atomic stores, same goroutine).
		feed.gen.Store(tr.Gen())
		feed.off.Store(tr.Off())
	}
}

// handleReplica serves the replica admin commands: "replica promote" and
// "replica status".
func (s *Server) handleReplica(args [][]byte, cs *connState) error {
	if len(args) != 1 {
		return cs.send(replyBadReplica)
	}
	switch string(args[0]) {
	case "promote":
		if err := s.Promote(); err != nil {
			cs.out = appendClientError(cs.out[:0], err.Error())
			return cs.send(cs.out)
		}
		return cs.send(replyOK)
	case "status":
		out := appendStatStr(cs.out[:0], "role", s.role())
		if s.repl != nil {
			out = appendStatStr(out, "primary_addr", s.repl.primary)
			for i, x := range s.sampleFollowers() {
				out = appendStats(out, shardPrefix(i), followerStats, &x)
			}
		}
		cs.out = append(out, replyEnd...)
		return cs.send(cs.out)
	default:
		return cs.send(replyBadReplica)
	}
}

// ---------------------------------------------------------------------------
// Follower side.

// Promote stops replication and lifts the read-only gate, making this server
// the new primary. Applied ops are already in the local journal, so the
// promoted server is durable from the first write. It is an error on a
// server that is not (or no longer) a replica.
func (s *Server) Promote() error {
	if s.repl == nil {
		return errors.New("not a replica")
	}
	s.repl.stopAll()
	if !s.readOnly.CompareAndSwap(true, false) {
		return errors.New("already promoted")
	}
	// The positions pointed into the old primary's journal; a primary has
	// none. Clearing them keeps future compaction snapshots free of stale
	// position records (journaled ones are harmless: if this server ever
	// re-follows, the dead run ID forces the full resync it needs anyway).
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.replPos = persist.Position{}
		sh.mu.Unlock()
	}
	s.logf("kvserver: promoted to primary (was replicating %s)", s.repl.primary)
	return nil
}

// replicaSession owns the follower's per-shard replication goroutines.
type replicaSession struct {
	s       *Server
	primary string
	reps    []*shardReplica

	// ctx ends when the session stops; it wakes a dial in progress as well
	// as the reconnect backoff. cancel is idempotent.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newReplicaSession(s *Server, primary string) *replicaSession {
	rs := &replicaSession{s: s, primary: primary}
	rs.ctx, rs.cancel = context.WithCancel(context.Background())
	for i, sh := range s.shards {
		sr := &shardReplica{
			rs: rs, idx: i, sh: sh,
			rnd: rand.New(rand.NewSource(time.Now().UnixNano() + int64(i))),
		}
		// Resume from the position recovery found in the local journal (a
		// restart with a current journal then reconnects with CONTINUE
		// instead of re-bootstrapping). A position scoped to a dead primary
		// run is harmless: the primary answers it with FULLSYNC.
		if pos := sh.replPos; pos.RunID != 0 {
			sr.gen, sr.off, sr.runID = pos.Gen, pos.Off, pos.RunID
		}
		rs.reps = append(rs.reps, sr)
	}
	return rs
}

// start launches one replication goroutine per shard.
func (rs *replicaSession) start() {
	for _, sr := range rs.reps {
		rs.wg.Add(1)
		go sr.run()
	}
}

// stopAll terminates every stream and waits for the goroutines. Idempotent.
func (rs *replicaSession) stopAll() {
	rs.cancel()
	for _, sr := range rs.reps {
		sr.closeConn()
	}
	rs.wg.Wait()
}

func (rs *replicaSession) isStopped() bool { return rs.ctx.Err() != nil }

// shardReplica replicates one shard: it tracks the primary-side (generation,
// offset) position, reconnecting with CONTINUE after a drop and falling back
// to a full resync when the position goes stale.
type shardReplica struct {
	rs  *replicaSession
	idx int
	sh  *shard

	mu         sync.Mutex
	conn       net.Conn
	connected  bool
	gen        uint64
	off        int64
	runID      uint64 // journal-run identity the position is scoped to
	fullSyncs  uint64
	reconnects uint64
	applied    uint64

	// staleStreak, batch and rnd are only touched by the run goroutine;
	// batch is the scratch for the op+position journal writes, rnd drives
	// the reconnect-backoff jitter.
	staleStreak int
	batch       []persist.Op
	rnd         *rand.Rand

	// lastFrame is the wall clock (unix nanos) of the newest frame — record,
	// generation switch or ping — this stream delivered; 0 before the first
	// connect. Atomic so the lag gauge reads it without the state mutex.
	lastFrame atomic.Int64
}

func (sr *shardReplica) pos() (gen uint64, off int64, runID uint64) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.gen, sr.off, sr.runID
}

func (sr *shardReplica) setPos(gen uint64, off int64) {
	sr.mu.Lock()
	sr.gen, sr.off = gen, off
	sr.mu.Unlock()
}

// commitSync installs a handshake result: the position and the run ID that
// scopes it, atomically.
func (sr *shardReplica) commitSync(gen uint64, off int64, runID uint64) {
	sr.mu.Lock()
	sr.gen, sr.off, sr.runID = gen, off, runID
	sr.mu.Unlock()
}

func (sr *shardReplica) setConn(c net.Conn) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.rs.isStopped() {
		return false
	}
	sr.conn = c
	return true
}

func (sr *shardReplica) closeConn() {
	sr.mu.Lock()
	if sr.conn != nil {
		sr.conn.Close()
	}
	sr.connected = false
	sr.mu.Unlock()
}

func (sr *shardReplica) setConnected(v bool) {
	sr.mu.Lock()
	sr.connected = v
	sr.mu.Unlock()
}

// run is the shard's replication loop: connect, sync, apply until the stream
// drops, back off, repeat — until the session stops (server close or
// promotion).
func (sr *shardReplica) run() {
	defer sr.rs.wg.Done()
	backoff := replBackoffMin
	for {
		progressed, err := sr.syncOnce()
		sr.setConnected(false)
		if sr.rs.isStopped() {
			return
		}
		if progressed {
			backoff = replBackoffMin
		}
		if err != nil {
			sr.rs.s.logf("kvserver: replica shard %d: %v", sr.idx, err)
		}
		sr.mu.Lock()
		sr.reconnects++
		sr.mu.Unlock()
		// Jittered: after a primary restart every shard stream drops at the
		// same instant, and un-jittered backoff would have all of them (on
		// every follower) redial in lockstep forever.
		t := time.NewTimer(jitter(sr.rnd, backoff))
		select {
		case <-sr.rs.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		if backoff *= 2; backoff > replBackoffMax {
			backoff = replBackoffMax
		}
	}
}

// syncOnce runs one connection's lifetime: handshake, resync, then the frame
// apply loop. progressed reports whether the handshake completed and at
// least one frame applied (resetting backoff and the stale streak).
func (sr *shardReplica) syncOnce() (progressed bool, err error) {
	s := sr.rs.s
	conn, err := (&net.Dialer{Timeout: replDialTimeout}).DialContext(sr.rs.ctx, "tcp", sr.rs.primary)
	if err != nil {
		return false, err
	}
	if !sr.setConn(conn) {
		conn.Close()
		return false, nil
	}
	defer sr.closeConn()
	// Reads refresh their deadline per socket read: the primary pings every
	// replTailPoll while idle, so silence means a dead peer, while a large
	// record or snapshot streams for as long as chunks keep arriving.
	bw := bufio.NewWriterSize(conn, connBufSize)
	br := bufio.NewReaderSize(idleConn{conn, s}, connBufSize)
	lr := proto.NewLineReader(br)

	conn.SetWriteDeadline(time.Now().Add(replDialTimeout))
	fmt.Fprintf(bw, "replconf shards %d\r\n", len(s.shards))
	if err := bw.Flush(); err != nil {
		return false, err
	}
	line, err := lr.ReadLine()
	if err != nil {
		return false, err
	}
	if want := fmt.Sprintf("REPLOK %d", len(s.shards)); string(line) != want {
		return false, fmt.Errorf("handshake rejected: %q", line)
	}

	gen, off, runID := sr.pos()
	if sr.staleStreak >= replStaleMax {
		// The position keeps failing to stream; abandon it.
		gen, off = 0, 0
	}
	fmt.Fprintf(bw, "sync %d %d %d %d\r\n", sr.idx, gen, off, runID)
	if err := bw.Flush(); err != nil {
		return false, err
	}
	conn.SetWriteDeadline(time.Time{})
	line, err = lr.ReadLine()
	if err != nil {
		return false, err
	}
	reply, err := parseSyncReply(line)
	if err != nil {
		return false, err
	}
	// The run ID commits together with the position it scopes — never
	// before. Committing it early would let a failed bootstrap leave the
	// OLD (gen, off) paired with the NEW run's ID, and the next reconnect
	// could then CONTINUE at offsets measured against a journal this run
	// may have truncated differently: exactly the divergence the run ID
	// exists to prevent.
	switch reply.kind {
	case syncContinue:
		sr.commitSync(reply.gen, reply.off, reply.runID)
		// Re-journal the handshake-confirmed position so the journal's
		// last position record is authoritative even when the recovered
		// one came from a truncated tail.
		sr.persistPos(persist.Position{RunID: reply.runID, Gen: reply.gen, Off: reply.off})
	case syncFull:
		if err := sr.bootstrap(br, reply.snapSize); err != nil {
			return false, fmt.Errorf("bootstrap: %w", err)
		}
		// The start generation arrives as the stream's first frame.
		sr.commitSync(0, 0, reply.runID)
		sr.mu.Lock()
		sr.fullSyncs++
		sr.mu.Unlock()
		sr.staleStreak = 0
	}
	sr.setConnected(true)
	// The handshake reply counts as liveness: the lag clock starts now, not
	// at the first frame.
	sr.lastFrame.Store(time.Now().UnixNano())

	// Registered only now — after the handshake succeeded — so dial and
	// handshake failures (a briefly unreachable primary) never count toward
	// the streak: it measures positions that were accepted but failed to
	// stream, nothing else.
	frames := uint64(0)
	defer func() {
		if frames > 0 {
			sr.staleStreak = 0
		} else if err != nil {
			sr.staleStreak++
		}
	}()
	stream := persist.NewStreamReader(br)
	for {
		frame, err := stream.Next()
		if err != nil {
			return frames > 0, err
		}
		sr.lastFrame.Store(time.Now().UnixNano())
		switch frame.Kind {
		case persist.FrameRecord:
			gen, off, _ := sr.pos()
			if gen == 0 {
				return frames > 0, errors.New("record frame before generation announcement")
			}
			// The position after this op, journaled atomically with it:
			// whatever prefix of the stream a crash preserves, the last
			// position record in the local journal names exactly the ops
			// recovery will replay, so the restart CONTINUEs from there.
			sr.apply(frame.Op, persist.Position{RunID: reply.runID, Gen: gen, Off: off + frame.Bytes})
			sr.mu.Lock()
			sr.off += frame.Bytes
			sr.applied++
			sr.mu.Unlock()
			frames++
		case persist.FrameGen:
			sr.setPos(frame.Gen, persist.SegmentHeaderLen)
			sr.persistPos(persist.Position{RunID: reply.runID, Gen: frame.Gen, Off: persist.SegmentHeaderLen})
			frames++
		case persist.FramePing:
			// Liveness — and progress for the stale-position streak: pings
			// mean the handshake accepted the position and the stream is
			// healthy but idle. A truly mid-record position fails on the
			// primary's first record read, before any ping, so counting
			// pings never masks real staleness — while NOT counting them
			// would let idle-period disconnects (a rolling primary restart)
			// pile up the streak and force a pointless full resync.
			frames++
		}
	}
}

// bootstrap applies a streamed full-sync snapshot into a staged store and
// swaps it in atomically under the shard lock. Staging is what makes a torn
// bootstrap safe: a disconnect — or a promotion racing the resync — mid-
// snapshot leaves the shard's previous state untouched instead of flushed
// and half-repopulated. Reads keep serving the old state until the swap; the
// local journal records the flush and the staged entries only after the swap
// commits, so the replica's own recovery can never see the torn middle
// either.
func (sr *shardReplica) bootstrap(r io.Reader, size int64) error {
	sh := sr.sh
	sh.mu.Lock()
	cfg := sh.store.cfg
	sh.mu.Unlock()
	staged, err := newStore(cfg)
	if err != nil {
		return err
	}
	if size > 0 {
		if _, err := persist.ReadSnapshot(io.LimitReader(r, size), staged.restore); err != nil {
			return err
		}
	}
	// One flush record plus every staged entry, journaled as a single batch:
	// one write pass and at most one fsync, instead of a per-entry append
	// (each an fsync under FsyncAlways) with the shard lock held.
	batch := make([]persist.Op, 0, staged.items.Len()+1)
	batch = append(batch, persist.Op{Kind: persist.KindFlush})
	batch = append(batch, staged.collectOps()...)
	sh.mu.Lock()
	// Lifetime counters survive the swap, exactly as store.flush keeps them
	// across flush_all.
	old := sh.store
	staged.expiredReclaimed += old.expiredReclaimed
	staged.evictedBase += old.evictedBase
	staged.rejectedBase += old.rejectedBase
	oldEv, oldRej := old.policyLifetime()
	staged.evictedBase += oldEv
	staged.rejectedBase += oldRej
	sh.store = staged
	sh.missedAt = make(map[string]int64)
	// The old position described the old store; the bootstrap's stream
	// position is unknown until the first generation frame. The flush
	// record leading the batch resets recovery's position tracking the same
	// way, so a crash here resyncs instead of resuming somewhere stale.
	sh.replPos = persist.Position{}
	if sh.journalLocked(batch...) {
		// The flush+entries batch rewrote the journaled state wholesale,
		// so any earlier append gap no longer matters: positions are
		// trustworthy again.
		sh.replDiverged = false
	}
	sh.mu.Unlock()
	return nil
}

// apply installs one replicated op: through the store's policy (so costs and
// queue placement replicate) and into the local journal (so the replica's own
// restarts and its post-promotion durability work unchanged) — together with
// the position record that makes the op's stream position durable. Op and
// position go down in one AppendBatch, so the journal can never hold the op
// without the position that accounts for it (a torn tail drops them
// together, or drops only the position — either way the recovered position
// names ops the journal actually holds).
func (sr *shardReplica) apply(op persist.Op, pos persist.Position) {
	sh := sr.sh
	batch := sr.batch[:0]
	if op.Kind != persist.KindPosition {
		// A position record arriving *in* the stream (a promoted
		// ex-follower's journal) is bookkeeping from someone else's
		// replication; only our own position belongs in our journal.
		batch = append(batch, op)
	}
	sh.mu.Lock()
	sh.store.restore(op)
	switch {
	case sh.canPersistPosLocked():
		batch = append(batch, persist.Op{Kind: persist.KindPosition, Pos: pos})
		if sh.journalLocked(batch...) {
			sh.replPos = pos
		} else {
			// The journal may now be missing this op: never persist a
			// position past the gap — a CONTINUE from there would
			// silently diverge. One full resync on the next restart
			// instead.
			sh.markDivergedLocked()
		}
	case len(batch) > 0:
		// No durable position (no AOF, or past a gap): keep the
		// best-effort op journaling a replica always did.
		sh.journalLocked(batch...)
	}
	sh.mu.Unlock()
	sr.batch = batch
}

// persistPos records a position change that carries no op: a generation
// switch, or the handshake's confirmed resume point.
func (sr *shardReplica) persistPos(pos persist.Position) {
	sh := sr.sh
	sr.batch = append(sr.batch[:0], persist.Op{Kind: persist.KindPosition, Pos: pos})
	sh.mu.Lock()
	if sh.canPersistPosLocked() {
		if sh.journalLocked(sr.batch...) {
			sh.replPos = pos
		} else {
			sh.markDivergedLocked()
		}
	}
	sh.mu.Unlock()
}

// syncReply is the parsed primary response to a sync command.
const (
	syncContinue = 'C'
	syncFull     = 'F'
)

type syncReply struct {
	kind     byte
	gen      uint64
	off      int64
	snapGen  uint64
	snapSize int64
	runID    uint64
}

// parseSyncReply parses "CONTINUE <gen> <offset> <runid>" or
// "FULLSYNC <snapgen> <snapbytes> <runid>". Anything else — including
// plausible replies with malformed offsets, a zero CONTINUE generation, or
// a zero run ID — is an error; the decoder never panics on hostile input
// (it is fuzzed alongside the frame decoder).
func parseSyncReply(line []byte) (syncReply, error) {
	var toks [5][]byte
	fields := proto.Tokenize(line, toks[:0])
	if len(fields) != 4 {
		return syncReply{}, fmt.Errorf("malformed sync reply %q", line)
	}
	runID, okRun := proto.ParseUint(fields[3])
	if !okRun || runID == 0 {
		return syncReply{}, fmt.Errorf("malformed sync reply run id %q", line)
	}
	switch string(fields[0]) {
	case "CONTINUE":
		gen, okGen := proto.ParseUint(fields[1])
		off, okOff := proto.ParseInt(fields[2])
		if !okGen || gen == 0 || !okOff || off < persist.SegmentHeaderLen {
			return syncReply{}, fmt.Errorf("malformed CONTINUE reply %q", line)
		}
		return syncReply{kind: syncContinue, gen: gen, off: off, runID: runID}, nil
	case "FULLSYNC":
		snapGen, okGen := proto.ParseUint(fields[1])
		size, okSize := proto.ParseInt(fields[2])
		if !okGen || !okSize || size < 0 || (snapGen == 0) != (size == 0) {
			return syncReply{}, fmt.Errorf("malformed FULLSYNC reply %q", line)
		}
		return syncReply{kind: syncFull, snapGen: snapGen, snapSize: size, runID: runID}, nil
	default:
		return syncReply{}, fmt.Errorf("unexpected sync reply %q", line)
	}
}
