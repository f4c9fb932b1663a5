package kvserver

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"camp/internal/kvclient"
	"camp/internal/persist"
	"camp/internal/trace"
)

// rawDial opens a plain TCP connection to s for hand-rolled protocol lines.
func rawDial(t *testing.T, s *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// sendLine writes one command line and returns the first response line.
func sendLine(t *testing.T, conn net.Conn, cmd string) string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

// startReplica boots a follower of p and registers cleanup.
func startReplica(t *testing.T, p *Server, cfg Config) *Server {
	t.Helper()
	cfg.ReplicaOf = p.Addr()
	return startServer(t, cfg)
}

// replCaughtUp reports whether every follower shard is connected and its
// position matches the primary's live journal end.
func replCaughtUp(primary, follower *Server) bool {
	for i, sh := range primary.shards {
		if sh.mgr == nil {
			return false
		}
		info := sh.mgr.Info()
		sr := follower.repl.reps[i]
		sr.mu.Lock()
		ok := sr.connected && sr.gen == info.Generation && sr.off == info.AOFSize
		sr.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// waitCaughtUp polls until the follower has replicated the primary's entire
// journal.
func waitCaughtUp(t *testing.T, primary, follower *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !replCaughtUp(primary, follower) {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up with the primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertStateEqual compares two captured server states key by key.
func assertStateEqual(t *testing.T, want, got map[string]expectedItem) {
	t.Helper()
	if len(got) != len(want) {
		var missing, extra []string
		for k := range want {
			if _, ok := got[k]; !ok {
				missing = append(missing, k)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		t.Fatalf("state size mismatch: got %d items, want %d (missing %v, extra %v)",
			len(got), len(want), missing, extra)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("key %q missing", key)
		}
		if g != w {
			t.Fatalf("key %q: got %+v, want %+v", key, g, w)
		}
	}
}

// totalEvictions sums policy evictions across a server's shards.
func totalEvictions(s *Server) uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.store.evictions()
		sh.mu.Unlock()
	}
	return n
}

// TestFailoverPromoteWarmReplica is the acceptance test: a 4-shard primary
// serves a trace workload under eviction pressure, a follower bootstraps
// mid-workload from snapshot + AOF, the primary is killed, and the promoted
// follower must hold the exact state — value, flags, expiry, cost — and a
// warm hit rate within 1% of the uninterrupted primary's.
//
// The snapshot is taken before eviction begins, so the follower's exactness
// here never depended on snapshot priorities; since snapshot format v2
// (exact priority offsets) mid-churn snapshots are byte-exact too — that
// case is pinned separately by TestReplicaBootstrapMidChurnFidelity.
func TestFailoverPromoteWarmReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("failover e2e is not a short-mode test")
	}
	mkCfg := func(dir string) Config {
		return Config{
			MemoryBytes: 128 << 10, // smaller than the full key population: phase 2 evicts
			Shards:      4,
			Policy:      "camp",
			DisableIQ:   true,
			Persist:     &PersistConfig{Dir: dir, Fsync: persist.FsyncNo, Logf: t.Logf},
		}
	}
	p := startServer(t, mkCfg(t.TempDir()))
	cp := dial(t, p)

	genCfg := trace.Config{
		Keys:     1200,
		Requests: 4000,
		Seed:     11,
		Size:     trace.SizeUniform(60, 140),
		Cost:     trace.CostChoice(1, 100, 10000),
	}
	g := trace.NewGenerator(genCfg)
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			req, ok := g.Next()
			if !ok {
				return
			}
			if err := cp.Set(req.Key, make([]byte, req.Size), 0, 0, req.Cost); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Phase 1 fits in memory, then a snapshot, then the follower attaches:
	// its bootstrap is genuinely snapshot + AOF, with the eviction-heavy
	// rest of the workload streaming live.
	send(500)
	if n := totalEvictions(p); n != 0 {
		t.Fatalf("phase 1 evicted %d items; the snapshot must predate churn", n)
	}
	p.Snapshot()
	f := startReplica(t, p, mkCfg(t.TempDir()))
	send(3500)
	if n := totalEvictions(p); n == 0 {
		t.Fatal("phase 2 never evicted; the workload must churn")
	}
	waitCaughtUp(t, p, f)

	if n := p.counters.replFullSyncsServed.Load(); n != 4 {
		t.Fatalf("primary served %d full syncs, want one per shard (4)", n)
	}
	for i, sr := range f.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		if fullSyncs != 1 {
			t.Fatalf("shard %d bootstrapped %d times, want 1", i, fullSyncs)
		}
	}

	measure := func(c *kvclient.Client) int {
		hits := 0
		mg := trace.NewGenerator(genCfg) // same seed: the identical reference stream
		for {
			req, ok := mg.Next()
			if !ok {
				return hits
			}
			if _, ok, err := c.Get(req.Key); err != nil {
				t.Fatal(err)
			} else if ok {
				hits++
			}
		}
	}
	hitsBefore := measure(cp)
	if hitsBefore == 0 || hitsBefore == int(genCfg.Requests) {
		t.Fatalf("degenerate warm run: %d/%d hits", hitsBefore, genCfg.Requests)
	}
	want := captureState(p)
	if len(want) == 0 {
		t.Fatal("workload produced no resident items")
	}
	p.Kill() // crash: the replica is now the only live copy

	cf := dial(t, f)
	if err := cf.Set("pre-promote", []byte("x"), 0, 0, 1); err == nil {
		t.Fatal("a replica must reject writes before promotion")
	} else if !errors.Is(err, kvclient.ErrServer) {
		t.Fatalf("replica write rejection: %v", err)
	}
	if err := cf.ReplicaPromote(); err != nil {
		t.Fatal(err)
	}

	assertStateEqual(t, want, captureState(f))
	hitsAfter := measure(cf)
	diff := hitsAfter - hitsBefore
	if diff < 0 {
		diff = -diff
	}
	if diff > int(genCfg.Requests)/100 {
		t.Fatalf("warm hit rate drifted past 1%% across failover: %d hits before, %d after (of %d gets)",
			hitsBefore, hitsAfter, genCfg.Requests)
	}
	// The promoted follower is a primary: writes flow again.
	if err := cf.Set("post-promote", []byte("x"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Stats("replica status"); err != nil {
		t.Fatal(err)
	}
}

// TestReplDisconnectReconnect drops every replication connection mid-segment
// and verifies the follower resumes with a partial resync (CONTINUE) — one
// full sync total, state converged.
func TestReplDisconnectReconnect(t *testing.T) {
	cfg := Config{
		MemoryBytes: 4 << 20,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	p := startServer(t, cfg)
	cp := dial(t, p)
	// A memory-only replica: replication does not require a local journal.
	f := startReplica(t, p, Config{MemoryBytes: 4 << 20, Shards: 2, Policy: "camp", DisableIQ: true})

	for i := 0; i < 100; i++ {
		if err := cp.Set(fmt.Sprintf("pre-%03d", i), []byte("v"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f)
	for _, sr := range f.repl.reps {
		sr.closeConn() // chaos: the stream dies mid-segment
	}
	for i := 0; i < 100; i++ {
		if err := cp.Set(fmt.Sprintf("post-%03d", i), []byte("v"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f)
	assertStateEqual(t, captureState(p), captureState(f))
	for i, sr := range f.repl.reps {
		sr.mu.Lock()
		fullSyncs, reconnects := sr.fullSyncs, sr.reconnects
		sr.mu.Unlock()
		if fullSyncs != 1 {
			t.Fatalf("shard %d: %d full syncs after a disconnect, want 1 (CONTINUE must resume)", i, fullSyncs)
		}
		if reconnects == 0 {
			t.Fatalf("shard %d: stream never reconnected", i)
		}
	}
}

// TestReplCompactionGenerationSwitch keeps a follower attached while the
// primary's journal compacts across generations: the stream must follow the
// generation switches without ever falling back to a full resync.
func TestReplCompactionGenerationSwitch(t *testing.T) {
	cfg := Config{
		MemoryBytes: 4 << 20,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist: &PersistConfig{
			Dir:      t.TempDir(),
			Fsync:    persist.FsyncNo,
			AOFLimit: 4 << 10, // tiny: compactions fire mid-stream
			Logf:     t.Logf,
		},
	}
	p := startServer(t, cfg)
	cp := dial(t, p)
	f := startReplica(t, p, Config{MemoryBytes: 4 << 20, Shards: 2, Policy: "camp", DisableIQ: true})
	waitCaughtUp(t, p, f)

	val := make([]byte, 256)
	for i := 0; i < 200; i++ {
		if err := cp.Set(fmt.Sprintf("key-%03d", i), val, 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for totalCompactions(p) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("journal never compacted despite the tiny AOF limit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCaughtUp(t, p, f)
	assertStateEqual(t, captureState(p), captureState(f))
	crossed := false
	for i, sr := range f.repl.reps {
		sr.mu.Lock()
		gen, fullSyncs := sr.gen, sr.fullSyncs
		sr.mu.Unlock()
		if gen > 1 {
			crossed = true
		}
		if fullSyncs != 1 {
			t.Fatalf("shard %d: %d full syncs under compaction, want 1 (switches must stream)", i, fullSyncs)
		}
	}
	if !crossed {
		t.Fatal("no follower shard crossed a generation despite compactions")
	}
}

// TestReplFollowerTornTailContinues crashes a persisted follower, tears its
// local journal tail, and restarts it: recovery must truncate the torn
// record (pinning the Redis-style aof-load-truncated behavior on the
// follower side) and — because every applied op was journaled atomically
// with a position record — the fresh session resumes with CONTINUE from the
// last intact position, never a full resync, and still converges back to
// equality including writes the primary took while the follower was down.
func TestReplFollowerTornTailContinues(t *testing.T) {
	if testing.Short() {
		t.Skip("torn-tail chaos test is not a short-mode test")
	}
	pCfg := Config{
		MemoryBytes: 4 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	p := startServer(t, pCfg)
	cp := dial(t, p)
	fDir := t.TempDir()
	fCfg := Config{
		MemoryBytes: 4 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: fDir, Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	f := startReplica(t, p, fCfg)

	for i := 0; i < 50; i++ {
		if err := cp.Set(fmt.Sprintf("key-%02d", i), []byte("v"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f)
	f.Kill()

	// Tear the follower's journal: a record header promising 100 payload
	// bytes, then only 5 — the shape a crash mid-write leaves.
	shardDir := filepath.Join(fDir, shardDirName(0))
	aofs, err := filepath.Glob(filepath.Join(shardDir, "aof-*.log"))
	if err != nil || len(aofs) == 0 {
		t.Fatalf("no follower journal found: %v (%v)", aofs, err)
	}
	aof, err := os.OpenFile(aofs[len(aofs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aof.Write([]byte{100, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	aof.Close()

	// The primary moves on while the follower is down.
	for i := 0; i < 20; i++ {
		if err := cp.Set(fmt.Sprintf("late-%02d", i), []byte("w"), 0, 0, 7); err != nil {
			t.Fatal(err)
		}
	}

	f2 := startReplica(t, p, fCfg)
	if f2.recovered.TruncatedBytes == 0 {
		t.Fatal("follower recovery never truncated the torn tail")
	}
	if pos := lockedReplPos(f2.shards[0]); pos.RunID == 0 {
		t.Fatal("no durable replication position recovered from the journal")
	}
	waitCaughtUp(t, p, f2)
	assertStateEqual(t, captureState(p), captureState(f2))
	for i, sr := range f2.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		if fullSyncs != 0 {
			t.Fatalf("restarted shard %d: %d full syncs, want 0 (durable position must CONTINUE)", i, fullSyncs)
		}
	}
}

// TestReplPrimaryRestartForcesResync pins the run-ID safeguard: replication
// positions are scoped to one journal run, so a follower reconnecting to a
// restarted primary must full-resync even though its (generation, offset)
// still parses and points inside the journal — after a crash-restart the
// tail may have been truncated, and continuing at old byte offsets would
// silently diverge.
func TestReplPrimaryRestartForcesResync(t *testing.T) {
	dir := t.TempDir()
	mk := func(addr string) Config {
		return Config{
			Addr:        addr,
			MemoryBytes: 4 << 20,
			Policy:      "camp",
			DisableIQ:   true,
			Persist:     &PersistConfig{Dir: dir, Fsync: persist.FsyncNo, Logf: t.Logf},
		}
	}
	p1 := startServer(t, mk(""))
	cp1 := dial(t, p1)
	for i := 0; i < 30; i++ {
		if err := cp1.Set(fmt.Sprintf("first-%02d", i), []byte("v"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	f := startReplica(t, p1, Config{MemoryBytes: 4 << 20, Policy: "camp", DisableIQ: true})
	waitCaughtUp(t, p1, f)

	addr := p1.Addr()
	p1.Kill()
	p2 := startServer(t, mk(addr)) // same port and data dir, new journal run
	cp2 := dial(t, p2)
	for i := 0; i < 10; i++ {
		if err := cp2.Set(fmt.Sprintf("second-%02d", i), []byte("w"), 0, 0, 5); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p2, f)
	assertStateEqual(t, captureState(p2), captureState(f))
	for i, sr := range f.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		if fullSyncs != 2 {
			t.Fatalf("shard %d: %d full syncs, want 2 (a stale run ID must force a resync, not CONTINUE)", i, fullSyncs)
		}
	}
}

// TestReplicaRejectsAllMutations pins the read-only gate across every
// mutating verb — and that reads and stats still flow.
func TestReplicaRejectsAllMutations(t *testing.T) {
	p := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	})
	cp := dial(t, p)
	if err := cp.Set("seed", []byte("42"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	f := startReplica(t, p, Config{MemoryBytes: 1 << 20, Policy: "camp", DisableIQ: true})
	waitCaughtUp(t, p, f)

	cf := dial(t, f)
	if v, ok, err := cf.Get("seed"); err != nil || !ok || string(v) != "42" {
		t.Fatalf("replica read: %q, %v, %v", v, ok, err)
	}
	if err := cf.Set("w", []byte("x"), 0, 0, 1); err == nil {
		t.Fatal("set accepted on a replica")
	}
	if _, err := cf.Add("w", []byte("x"), 0, 0, 1); err == nil {
		t.Fatal("add accepted on a replica")
	}
	if _, _, err := cf.Incr("seed", 1); err == nil {
		t.Fatal("incr accepted on a replica")
	}
	if _, err := cf.Touch("seed", 60); err == nil {
		t.Fatal("touch accepted on a replica")
	}
	if _, err := cf.Delete("seed"); err == nil {
		t.Fatal("delete accepted on a replica")
	}
	if err := cf.FlushAll(); err == nil {
		t.Fatal("flush_all accepted on a replica")
	}
	stats, err := cf.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats["role"] != "replica" {
		t.Fatalf("role = %q, want replica", stats["role"])
	}
	status, err := cf.Stats("replica status")
	if err != nil {
		t.Fatal(err)
	}
	if status["role"] != "replica" || status["shard0_connected"] != "1" {
		t.Fatalf("replica status: %v", status)
	}
	// The replicated value kept its state after all those rejections.
	if v, ok, err := cf.Get("seed"); err != nil || !ok || string(v) != "42" {
		t.Fatalf("replica read after rejections: %q, %v, %v", v, ok, err)
	}
}

// TestReplHandshakeRejections covers the handshake's refusal paths: shard
// count mismatch, a replconf form other than "shards", promote on a primary,
// sync against a journal-less server, and sync from a replica (no chaining).
func TestReplHandshakeRejections(t *testing.T) {
	p := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	})
	send := func(s *Server, cmd string) string {
		t.Helper()
		conn := rawDial(t, s)
		defer conn.Close()
		return sendLine(t, conn, cmd)
	}
	if got := send(p, "replconf shards 3"); got != "CLIENT_ERROR shard count mismatch: primary has 2" {
		t.Fatalf("shard mismatch reply: %q", got)
	}
	if got := send(p, "replconf shards 2"); got != "REPLOK 2" {
		t.Fatalf("replconf reply: %q", got)
	}
	if got := send(p, "replconf tenants a"); got != "CLIENT_ERROR bad replconf command" {
		t.Fatalf("replconf tenants reply: %q", got)
	}
	if got := send(p, "replica promote"); got != "CLIENT_ERROR not a replica" {
		t.Fatalf("promote-on-primary reply: %q", got)
	}
	if got := send(p, "sync 5 0 0"); got != "CLIENT_ERROR bad sync command" {
		t.Fatalf("out-of-range shard reply: %q", got)
	}

	volatile := startServer(t, Config{MemoryBytes: 1 << 20, Policy: "camp", DisableIQ: true})
	if got := send(volatile, "sync 0 0 0"); got != "CLIENT_ERROR primary is not journaling (persistence with AOF required)" {
		t.Fatalf("journal-less sync reply: %q", got)
	}

	f := startReplica(t, p, Config{MemoryBytes: 1 << 20, Shards: 2, Policy: "camp", DisableIQ: true})
	waitCaughtUp(t, p, f)
	if got := send(f, "sync 0 0 0"); got != "CLIENT_ERROR replica cannot serve syncs (chained replication unsupported)" {
		t.Fatalf("chained sync reply: %q", got)
	}
}

// TestReplicaRandomizedMixConverges replays the randomized mutation mix of
// the crash-recovery acceptance test against a primary with a live follower:
// after catch-up the follower must hold the identical state.
func TestReplicaRandomizedMixConverges(t *testing.T) {
	cfg := Config{
		MemoryBytes: 8 << 20,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, AOFLimit: 8 << 10, Logf: t.Logf},
	}
	p := startServer(t, cfg)
	c := dial(t, p)
	f := startReplica(t, p, Config{MemoryBytes: 8 << 20, Shards: 2, Policy: "camp", DisableIQ: true})

	rng := rand.New(rand.NewSource(99))
	keys := make([]string, 150)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	for i := 0; i < 1500; i++ {
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(10); {
		case op < 6:
			val := []byte(fmt.Sprintf("val-%d-%d", i, rng.Int63()))
			ttl := int64(0)
			if rng.Intn(3) == 0 {
				ttl = int64(3600 + rng.Intn(3600))
			}
			if err := c.Set(key, val, uint32(rng.Intn(1<<16)), ttl, int64(1+rng.Intn(10000))); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			if _, err := c.Delete(key); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := c.Touch(key, int64(1800+rng.Intn(1800))); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCaughtUp(t, p, f)
	want := captureState(p)
	if len(want) == 0 {
		t.Fatal("mix produced no resident items")
	}
	assertStateEqual(t, want, captureState(f))
}

// FuzzParseSyncReply hardens the follower side of the handshake: arbitrary
// primary responses must parse or be rejected without panicking, and
// accepted replies must satisfy the position invariants (no zero CONTINUE
// generation, no offset inside the segment header, no negative snapshot
// size, no snapshot bytes without a snapshot generation).
func FuzzParseSyncReply(f *testing.F) {
	f.Add([]byte("CONTINUE 3 1234 77"))
	f.Add([]byte("FULLSYNC 2 9999 77"))
	f.Add([]byte("FULLSYNC 0 0 1"))
	f.Add([]byte("CONTINUE 0 12 1"))
	f.Add([]byte("CONTINUE 1 -5 1"))
	f.Add([]byte("CONTINUE 1 12 0"))
	f.Add([]byte("FULLSYNC 1 0 9"))
	f.Add([]byte("CLIENT_ERROR bad sync command"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, line []byte) {
		reply, err := parseSyncReply(line)
		if err != nil {
			return
		}
		if reply.runID == 0 {
			t.Fatalf("accepted zero run id from %q", line)
		}
		switch reply.kind {
		case syncContinue:
			if reply.gen == 0 || reply.off < persist.SegmentHeaderLen {
				t.Fatalf("accepted invalid CONTINUE %+v from %q", reply, line)
			}
		case syncFull:
			if reply.snapSize < 0 || (reply.snapGen == 0) != (reply.snapSize == 0) {
				t.Fatalf("accepted invalid FULLSYNC %+v from %q", reply, line)
			}
		default:
			t.Fatalf("accepted unknown reply kind %q from %q", reply.kind, line)
		}
	})
}

// FuzzParseSyncArgs hardens the primary side: arbitrary sync arguments —
// malformed offsets, generation skews, out-of-range shards — must be
// rejected without panicking.
func FuzzParseSyncArgs(f *testing.F) {
	f.Add([]byte("0"), []byte("1"), []byte("12"), []byte("7"))
	f.Add([]byte("3"), []byte("0"), []byte("0"), []byte("0"))
	f.Add([]byte("0"), []byte("0"), []byte("7"), []byte("1"))
	f.Add([]byte("x"), []byte("-1"), []byte("99999999999999999999"), []byte("?"))
	f.Fuzz(func(t *testing.T, a, b, c, d []byte) {
		idx, gen, off, _, ok := parseSyncArgs([][]byte{a, b, c, d}, 4)
		if !ok {
			return
		}
		if idx < 0 || idx >= 4 || off < 0 || (gen == 0 && off != 0) {
			t.Fatalf("accepted invalid sync args %q %q %q %q -> %d %d %d", a, b, c, d, idx, gen, off)
		}
	})
}

// TestReplicaBootstrapMidChurnFidelity is the replica half of the v2
// fidelity property: a follower that bootstraps via FULLSYNC from a
// snapshot cut mid-churn (non-uniform priority offsets) and then applies
// the streamed journal tail must end with exactly the primary's cross-queue
// eviction order, shard by shard — not just the same keys and values.
func TestReplicaBootstrapMidChurnFidelity(t *testing.T) {
	pCfg := Config{
		MemoryBytes: 48 << 10, // small: the workload must evict
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	p := startServer(t, pCfg)
	cp := dial(t, p)
	rng := rand.New(rand.NewSource(11))
	costs := []int64{1, 1, 40, 40, 900, 20000}
	// Phase 1: get+set churn, so entries enter at many different L values.
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%03d", rng.Intn(600))
		if rng.Intn(4) == 0 {
			if _, _, err := cp.Get(key); err != nil {
				t.Fatal(err)
			}
		} else if err := cp.Set(key, make([]byte, 80), 0, 0, costs[rng.Intn(len(costs))]); err != nil {
			t.Fatal(err)
		}
	}
	for i, sh := range p.shards {
		sh.mu.Lock()
		ev := sh.store.evictions()
		sh.mu.Unlock()
		if ev == 0 {
			t.Fatalf("shard %d: no evictions — mid-churn bootstrap is vacuous", i)
		}
	}
	// The FULLSYNC artifact under test: a snapshot cut in the middle of the
	// churn, with the priority offsets of that instant.
	p.Snapshot()
	// Phase 2: more mutations (no gets — reads are not journaled, so only
	// mutations replicate; they still evict, and those eviction decisions
	// depend on the exact offsets the snapshot carried).
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("key-%03d", rng.Intn(600))
		if err := cp.Set(key, make([]byte, 80), 0, 0, costs[rng.Intn(len(costs))]); err != nil {
			t.Fatal(err)
		}
	}

	f := startReplica(t, p, Config{
		MemoryBytes: 48 << 10,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	})
	waitCaughtUp(t, p, f)
	assertStateEqual(t, captureState(p), captureState(f))
	for i := range p.shards {
		want := shardEvictionOrder(p.shards[i])
		got := shardEvictionOrder(f.shards[i])
		if len(got) != len(want) {
			t.Fatalf("shard %d: follower holds %d entries, primary %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("shard %d: eviction order diverges at %d/%d: follower %q, primary %q",
					i, j, len(want), got[j], want[j])
			}
		}
	}
	for i, sr := range f.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		if fullSyncs != 1 {
			t.Fatalf("shard %d: %d full syncs, want exactly 1 bootstrap", i, fullSyncs)
		}
	}
}

// TestReplicaRestartContinues is the headline durable-position test: a
// follower killed mid-stream and restarted on its own journal must resume
// with CONTINUE at its persisted position — zero full_syncs in the new
// session, no FULLSYNC served by the primary — and still converge to exact
// equality. Also pins the kvclient status surface for the durable position.
func TestReplicaRestartContinues(t *testing.T) {
	pCfg := Config{
		MemoryBytes: 4 << 20,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	p := startServer(t, pCfg)
	cp := dial(t, p)
	for i := 0; i < 60; i++ {
		if err := cp.Set(fmt.Sprintf("key-%03d", i), []byte("v"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	fDir := t.TempDir()
	fCfg := Config{
		MemoryBytes: 4 << 20,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: fDir, Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	f1 := startReplica(t, p, fCfg)
	waitCaughtUp(t, p, f1)

	// The client-visible durable-position surface.
	cf, err := kvclient.Dial(f1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	status, err := cf.Stats("replica status")
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := status["shard2_connected"]; ok {
		t.Fatalf("replica status reports a third shard: %v", status)
	}
	for i := 0; i < 2; i++ {
		shard := func(name string) int64 { return statInt(t, status, fmt.Sprintf("shard%d_%s", i, name)) }
		if shard("connected") != 1 || shard("durable") != 1 || shard("durable_gen") == 0 ||
			shard("durable_offset") < persist.SegmentHeaderLen || statRow(t, status, fmt.Sprintf("shard%d_run_id", i)) == "0" {
			t.Fatalf("shard %d status lacks a durable position: %v", i, status)
		}
		if n := shard("full_syncs"); n != 1 {
			t.Fatalf("shard %d: fresh-dir bootstrap should be exactly 1 full sync, got %d", i, n)
		}
	}

	// Kill mid-stream: a writer keeps mutating while the follower dies.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if err := cp.Set(fmt.Sprintf("late-%03d", i), []byte("w"), 0, 0, 7); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	time.Sleep(2 * time.Millisecond)
	f1.Kill()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	fullSyncsBefore := p.counters.replFullSyncsServed.Load()
	f2 := startReplica(t, p, fCfg)
	for i, sh := range f2.shards {
		if lockedReplPos(sh).RunID == 0 {
			t.Fatalf("shard %d: no durable position recovered", i)
		}
	}
	waitCaughtUp(t, p, f2)
	assertStateEqual(t, captureState(p), captureState(f2))
	for i, sr := range f2.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		if fullSyncs != 0 {
			t.Fatalf("restarted shard %d: %d full syncs, want 0 (CONTINUE from persisted position)", i, fullSyncs)
		}
	}
	if served := p.counters.replFullSyncsServed.Load(); served != fullSyncsBefore {
		t.Fatalf("primary served %d full syncs across the restart, want 0", served-fullSyncsBefore)
	}
}

// lockedReplPos reads a shard's replication position under its lock: a
// started follower's apply loop may be moving it.
func lockedReplPos(sh *shard) persist.Position {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.replPos
}

// tearLastRecord truncates a journal file mid-way through its final record,
// returning the kind of the record it tore. The caller picks the file.
func tearLastRecord(t *testing.T, path string) persist.Kind {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(persist.SegmentHeaderLen)
	lastStart, lastKind := off, persist.Kind(0)
	for off < int64(len(data)) {
		op, used, err := persist.DecodeRecord(data[off:])
		if err != nil {
			t.Fatalf("parsing journal for tear point: %v", err)
		}
		lastStart, lastKind = off, op.Kind
		off += int64(used)
	}
	if lastStart == int64(persist.SegmentHeaderLen) && off == lastStart {
		t.Fatal("journal has no records to tear")
	}
	// Keep a few bytes of the final record so recovery sees a genuine torn
	// record, not a clean boundary.
	if err := os.Truncate(path, lastStart+3); err != nil {
		t.Fatal(err)
	}
	return lastKind
}

// TestReplicaRestartTornPositionContinues is the nastiest torn-tail case:
// the torn record is the position record itself. Recovery truncates it, the
// journal then ends with an applied op whose position record is gone, and
// the follower must CONTINUE from the previous position record — re-applying
// that one op idempotently — rather than full-resync or diverge.
func TestReplicaRestartTornPositionContinues(t *testing.T) {
	pCfg := Config{
		MemoryBytes: 4 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	p := startServer(t, pCfg)
	cp := dial(t, p)
	for i := 0; i < 50; i++ {
		if err := cp.Set(fmt.Sprintf("key-%02d", i), []byte("v"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	fDir := t.TempDir()
	fCfg := Config{
		MemoryBytes: 4 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: fDir, Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	f1 := startReplica(t, p, fCfg)
	waitCaughtUp(t, p, f1)
	f1.Kill()

	// The follower journals [op, position] per applied frame, so the final
	// record is a position record; tear it mid-way.
	aofs, err := filepath.Glob(filepath.Join(fDir, shardDirName(0), "aof-*.log"))
	if err != nil || len(aofs) == 0 {
		t.Fatalf("no follower journal found: %v (%v)", aofs, err)
	}
	if kind := tearLastRecord(t, aofs[len(aofs)-1]); kind != persist.KindPosition {
		t.Fatalf("final journal record is kind %d, want a position record", kind)
	}

	// The primary moves on while the follower is down.
	for i := 0; i < 20; i++ {
		if err := cp.Set(fmt.Sprintf("late-%02d", i), []byte("w"), 0, 0, 7); err != nil {
			t.Fatal(err)
		}
	}

	f2 := startReplica(t, p, fCfg)
	if f2.recovered.TruncatedBytes == 0 {
		t.Fatal("follower recovery never truncated the torn position record")
	}
	if lockedReplPos(f2.shards[0]).RunID == 0 {
		t.Fatal("no earlier durable position survived the tear")
	}
	waitCaughtUp(t, p, f2)
	assertStateEqual(t, captureState(p), captureState(f2))
	for i, sr := range f2.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		if fullSyncs != 0 {
			t.Fatalf("restarted shard %d: %d full syncs, want 0", i, fullSyncs)
		}
	}
}

// TestReplicaRestartStaleRunIDResyncsOnce closes the safety half: a durable
// position is scoped to one primary journal run, so a follower restarting
// against a crash-restarted primary (fresh run ID) must NOT trust its
// persisted offsets — exactly one FULLSYNC per shard, then equality.
func TestReplicaRestartStaleRunIDResyncsOnce(t *testing.T) {
	pDir := t.TempDir()
	mkP := func() Config {
		return Config{
			MemoryBytes: 4 << 20,
			Policy:      "camp",
			DisableIQ:   true,
			Persist:     &PersistConfig{Dir: pDir, Fsync: persist.FsyncNo, Logf: t.Logf},
		}
	}
	p1 := startServer(t, mkP())
	cp1 := dial(t, p1)
	for i := 0; i < 40; i++ {
		if err := cp1.Set(fmt.Sprintf("key-%02d", i), []byte("v"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	fDir := t.TempDir()
	fCfg := Config{
		MemoryBytes: 4 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: fDir, Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	f1 := startReplica(t, p1, fCfg)
	waitCaughtUp(t, p1, f1)
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	staleRun := uint64(0)
	// The persisted position survives the orderly shutdown.
	{
		probe, err := New(fCfg)
		if err != nil {
			t.Fatal(err)
		}
		staleRun = probe.shards[0].replPos.RunID
		probe.Close()
		if staleRun == 0 {
			t.Fatal("orderly shutdown lost the durable position")
		}
	}

	p1.Kill()
	p2 := startServer(t, mkP()) // same data dir, fresh journal run
	cp2 := dial(t, p2)
	for i := 0; i < 15; i++ {
		if err := cp2.Set(fmt.Sprintf("second-%02d", i), []byte("w"), 0, 0, 5); err != nil {
			t.Fatal(err)
		}
	}

	f2 := startReplica(t, p2, fCfg)
	if got := f2.shards[0].replPos.RunID; got != staleRun {
		t.Fatalf("recovered run ID %d, want the stale %d", got, staleRun)
	}
	waitCaughtUp(t, p2, f2)
	assertStateEqual(t, captureState(p2), captureState(f2))
	for i, sr := range f2.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		if fullSyncs != 1 {
			t.Fatalf("shard %d: %d full syncs, want exactly 1 (stale run ID must resync once)", i, fullSyncs)
		}
	}
}

// TestReplicaWithoutJournalReportsNotDurable pins the status contract: a
// replica with no AOF (no -data-dir here) has nowhere to persist positions,
// so it must report durable 0 — claiming otherwise would promise a cheap
// CONTINUE restart that a journal-less replica can never deliver.
func TestReplicaWithoutJournalReportsNotDurable(t *testing.T) {
	p := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	})
	cp := dial(t, p)
	if err := cp.Set("seed", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	f := startReplica(t, p, Config{MemoryBytes: 1 << 20, Policy: "camp", DisableIQ: true})
	waitCaughtUp(t, p, f)
	if pos := f.shards[0].replPos; pos.RunID != 0 {
		t.Fatalf("journal-less replica recorded a durable position %+v", pos)
	}
	cf := dial(t, f)
	status, err := cf.Stats("replica status")
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.shards {
		shard := func(name string) int64 { return statInt(t, status, fmt.Sprintf("shard%d_%s", i, name)) }
		if shard("durable") != 0 || shard("durable_gen") != 0 || shard("durable_offset") != 0 {
			t.Fatalf("shard %d claims a durable position without a journal: %v", i, status)
		}
		if shard("connected") != 1 || shard("applied_ops") == 0 {
			t.Fatalf("shard %d should still be streaming: %v", i, status)
		}
	}
}

// TestReplicaDivergedJournalStopsPersistingPositions pins the gap
// safeguard: once an op+position append fails, the journal may be missing
// an applied op, so later positions must neither advance nor persist — a
// restart must fall back to a full resync rather than CONTINUE past the
// gap into silent divergence. A successful bootstrap (which rewrites the
// journaled state wholesale) heals the flag.
func TestReplicaDivergedJournalStopsPersistingPositions(t *testing.T) {
	p := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	})
	cp := dial(t, p)
	if err := cp.Set("seed", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	fDir := t.TempDir()
	fCfg := Config{
		MemoryBytes: 1 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: fDir, Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	f := startReplica(t, p, fCfg)
	waitCaughtUp(t, p, f)
	sh := f.shards[0]
	sh.mu.Lock()
	before := sh.replPos
	sh.markDivergedLocked()
	sh.mu.Unlock()
	if before.RunID == 0 {
		t.Fatal("no durable position before the simulated gap")
	}
	if err := cp.Set("after-gap", []byte("w"), 0, 0, 2); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f)
	sh.mu.Lock()
	pos, diverged := sh.replPos, sh.replDiverged
	sh.mu.Unlock()
	if pos.RunID != 0 || !diverged {
		t.Fatalf("position advanced past a journal gap: %+v (diverged=%v)", pos, diverged)
	}
	// A restart now sees no position (the journal's stale records predate
	// the flush a resync writes) — the stream itself keeps applying either
	// way; what matters is that the divergence never reached disk as a
	// trustworthy position. A fresh bootstrap clears the flag.
	f.Kill()
	f2 := startReplica(t, p, fCfg)
	waitCaughtUp(t, p, f2)
	for i, sr := range f2.repl.reps {
		sr.mu.Lock()
		fullSyncs := sr.fullSyncs
		sr.mu.Unlock()
		// The journal still holds position records from before the gap, so
		// the restart may CONTINUE from a pre-gap position (re-applying the
		// tail) or, had the gap been real on disk, resync; either way it
		// must converge — and after a FULLSYNC the flag is clear again.
		_ = fullSyncs
		f2.shards[i].mu.Lock()
		diverged := f2.shards[i].replDiverged
		f2.shards[i].mu.Unlock()
		if diverged {
			t.Fatalf("shard %d still diverged after restart", i)
		}
	}
	assertStateEqual(t, captureState(p), captureState(f2))
}
