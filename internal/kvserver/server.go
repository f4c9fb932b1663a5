// Package kvserver implements a memcached-style key-value server with
// pluggable cost-aware eviction, reproducing the §4 "IQ Twemcache"
// implementation of the CAMP paper.
//
// The server speaks a memcached text protocol subset over TCP:
//
//	set <key> <flags> <exptime> <bytes> [cost] [noreply]\r\n<data>\r\n
//	get <key> [<key> ...]\r\n
//	delete <key> [noreply]\r\n
//	tenant [<name>]\r\n
//	stats\r\n    flush_all [all]\r\n    version\r\n    debug <key>\r\n    quit\r\n
//
// The server is multi-tenant: "tenant <name>" scopes a connection to a
// namespace, each tenant can reserve memory (Config.TenantReserves), and a
// Memshare-style arbiter shares the rest by marginal eviction priority; see
// tenants.go. Connections that never issue the verb live on the default
// tenant with pre-tenancy semantics, byte for byte.
//
// In IQ mode (default) the server timestamps every get miss; when the
// subsequent set for that key arrives without an explicit cost, the elapsed
// time in microseconds becomes the key's cost — exactly how the paper's IQ
// framework derives recomputation costs from iqget/iqset pairs.
//
// Memory management is one layout interface (layouts.go) with two
// implementations the rest of the server cannot tell apart: "byte" keeps
// each key and value in one heap buffer and charges exact sizes to the
// eviction policy; "arena" packs keys and values into log-structured per-shard
// segments reclaimed by incremental compaction (Memshare-style), driven by
// the same policies — its set path reuses pooled scratch end to end, so
// steady-state overwrites make no per-item heap allocations at all.
//
// The server is sharded for vertical scaling, the §4.1 recipe: keys hash
// across Config.Shards independent shards, each owning its own store,
// mutex, IQ miss table and — with Config.Persist set — its own journal and
// snapshot generations under data-dir/shard-NNN/. Mutations are journaled
// through internal/persist and a restart warm-loads each shard's newest
// snapshot plus journal tail (in parallel), so the working set and the
// IQ-learned costs survive crashes and deploys. Snapshots run off the
// request path: the journal switches segments under the shard lock, but the
// snapshot itself is serialized and written unlocked, so compaction never
// stalls more than the one shard, and only for the in-memory copy-out.
//
// The request loop is allocation-free on the steady state: command lines are
// read with a zero-copy line reader and tokenized in place, integers parse
// straight from the wire bytes, per-connection scratch (token slots, reply
// staging, value read buffer) lives in a pooled connection state, and replies
// are built by appending to a reusable buffer — a key is stored once, in its
// item's buffer, and materializes as a Go string only in IQ miss records.
package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"camp/internal/core"
	"camp/internal/fault"
	"camp/internal/persist"
	"camp/internal/proto"
)

// Memory-management modes.
const (
	ModeByte = "byte"
	// ModeArena packs records into per-shard log-structured segments with
	// incremental compaction; see internal/alloc/arena.go.
	ModeArena = "arena"
)

// MaxShards bounds Config.Shards.
const MaxShards = 1024

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address; empty means 127.0.0.1:0.
	Addr string
	// MemoryBytes is the cache capacity, split evenly across shards.
	MemoryBytes int64
	// Shards is the number of independent stores keys are hashed across
	// (default 1). Each shard has its own lock, eviction state and — with
	// persistence — its own journal, so writes scale across cores. Capacity
	// splits evenly, so each shard holds MemoryBytes/Shards: a single value
	// larger than that slice is rejected even if it fits MaxValueBytes. Size
	// Shards so the per-shard slice stays comfortably above the largest
	// expected value (cmd/campsrv's auto default does this).
	Shards int
	// Policy selects the eviction algorithm: "camp" (default), "lru" or
	// "gds".
	Policy string
	// Precision is CAMP's rounding precision (default 5).
	Precision uint
	// Mode selects memory management: ModeByte (default) or ModeArena.
	Mode string
	// ArenaSegment overrides the arena segment size in arena mode (default:
	// one eighth of the per-shard capacity, clamped to [4 KiB, 1 MiB]).
	ArenaSegment int64
	// ItemOverhead is charged per item on top of key+value bytes
	// (default 56, approximating Twemcache's item header).
	ItemOverhead int64
	// DisableIQ turns off miss-to-set cost derivation.
	DisableIQ bool
	// MaxConns caps concurrently served connections. Accepts beyond the cap
	// are refused (closed immediately) and counted in
	// accept_rejected_maxconns, and the accept loop backs off briefly so a
	// reconnect storm burns a bounded accept rate instead of a core.
	// 0 means unlimited.
	MaxConns int
	// MaxValueBytes rejects larger values (default 8 MiB).
	MaxValueBytes int64
	// Persist enables the durability subsystem when non-nil: mutations are
	// journaled per shard to an append-only log and the store warm-restarts
	// from each shard's newest snapshot plus journal tail, costs included.
	Persist *PersistConfig
	// MetricsAddr, when non-empty, starts an HTTP listener on this address
	// serving Prometheus text exposition at /metrics and the net/http/pprof
	// profiling handlers under /debug/pprof/. The listener is private to
	// this server (its own mux, not http.DefaultServeMux) and stops with it.
	MetricsAddr string
	// SlowlogThreshold is the command duration at or above which the
	// slowlog records a command (default 10ms; negative disables the
	// slowlog). Adjustable at runtime with "slowlog threshold <ms>".
	SlowlogThreshold time.Duration
	// ReplicaOf, when non-empty, starts the server as a read-only replica of
	// the primary listening at this address: one replication goroutine per
	// shard bootstraps from the primary's snapshot + journal and then tails
	// its op stream live, applying every mutation through the configured
	// eviction policy so costs and queue placement replicate too. The shard
	// count must match the primary's. The replica serves reads (and rejects
	// mutations) while replicating; "replica promote" makes it the primary.
	ReplicaOf string
	// TenantReserves maps tenant names to reserved bytes (byte and arena
	// modes only).
	// A tenant holding no more than its reserve is never evicted by another
	// tenant's churn; unreserved capacity is a shared pool arbitrated by
	// marginal eviction priority. Reserves must sum to at most MemoryBytes.
	// Values here override quotas recovered from the journal.
	TenantReserves map[string]int64
	// TenantQuotas maps tenant names to shed-on-exceed request limits (byte
	// and arena modes only): an ops/sec rate enforced with a lock-free GCRA
	// bucket and a cap on mutation payload bytes in flight. Over-quota
	// requests answer "SERVER_ERROR tenant over quota" after being fully
	// consumed, so the connection stream stays aligned. Quotas describe the
	// deployment, not the data: they are never journaled or replicated.
	TenantQuotas map[string]TenantQuota

	// tenants and shardSlot are threaded through the per-shard Config
	// copies so each store can reach the server's tenant registry and
	// compute its slice of a reserve; set by New, never by callers.
	tenants   *tenantRegistry
	shardSlot int
}

// TenantQuota is one tenant's shed-on-exceed request limits
// (Config.TenantQuotas); zero-valued fields are unlimited.
type TenantQuota struct {
	// OpsPerSec caps the tenant's mutation rate; a burst of one full second
	// (OpsPerSec back-to-back ops from idle) is tolerated.
	OpsPerSec int64
	// MaxBytesInFlight caps the tenant's concurrently processed mutation
	// payload bytes across all its connections.
	MaxBytesInFlight int64
	// ShedReads extends the ops/sec cap to the read path; by default reads
	// are always served so an over-quota tenant can still drain its cache.
	ShedReads bool
}

// PersistConfig configures the internal/persist subsystem for a Server.
type PersistConfig struct {
	// Dir is the data directory (required). The server locks it (flock on
	// unix; platforms without flock get no mutual exclusion), so a second
	// server pointed at the same directory refuses to start.
	Dir string
	// Fsync is the AOF sync policy: persist.FsyncAlways, FsyncEverySec
	// (default) or FsyncNo.
	Fsync string
	// AOFLimit overrides the per-shard journal size that triggers
	// compaction.
	AOFLimit int64
	// Logf receives recovery and background-sync warnings (default: none).
	Logf func(format string, args ...any)
	// FS routes every journal and snapshot file operation; nil means the
	// real filesystem. Fault-injection tests pass a fault.Injector here to
	// exercise disk-failure degradation end to end.
	FS fault.FS
	// ProbeMin/ProbeMax bound the jittered exponential backoff between
	// disk-health probes while a shard is degraded (defaults 500ms / 10s).
	ProbeMin time.Duration
	ProbeMax time.Duration
}

// DefaultItemOverhead approximates the per-item header of Twemcache.
const DefaultItemOverhead = 56

// Server is a cost-aware KVS sharded across independent stores.
type Server struct {
	cfg Config
	ln  net.Listener

	shards   []*shard
	counters counters

	// tenants is the server-wide tenant registry (tenants.go); the default
	// tenant always exists.
	tenants *tenantRegistry

	// copiesValues is the storage layout's one capability (layouts.go),
	// read once from shard 0's layout — every shard runs the same one — so
	// handlers can consult it without a shard lock.
	copiesValues bool

	// Instrumentation: per-verb histograms, slowlog and the Prometheus
	// registry (metrics.go); started anchors the uptime stat; metricsLn and
	// metricsSrv are the optional -metrics-addr HTTP endpoint (http.go).
	started    time.Time
	metrics    srvMetrics
	metricsLn  net.Listener
	metricsSrv *http.Server

	// Live sync-feed stream positions, for the replication-lag gauges.
	feedMu  sync.Mutex
	feeds   map[*feedStat]struct{}
	feedSeq uint64

	recovered persist.RecoverStats
	rootLock  *persist.DirLock

	// Replication: repl drives this server's own follower streams (nil on a
	// primary); readOnly gates mutations while replicating.
	repl     *replicaSession
	readOnly atomic.Bool

	// stopBg wakes every background wait: compactor, prober, replication
	// feeds (stop). wg counts every goroutine; clients counts the accept loop
	// and the connections serving commands. drainBy is stop's read deadline.
	compactC chan *shard
	probeC   chan struct{}
	stopBg   chan struct{}
	wg       sync.WaitGroup
	clients  sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	drainBy  time.Time

	// testHookCmd, when non-nil, runs at the top of every dispatched command.
	// Fault tests use it to inject handler panics; it is never set in
	// production, so the request path pays one nil check.
	testHookCmd func(toks [][]byte)
	// writeTimeout is connWriteTimeout; tests shorten it before Start.
	writeTimeout time.Duration
	// now is the clock expiry reads, in unix nanoseconds: mutate and
	// handleGet read it once per command. Tests replace it before Start to
	// make a TTL lapse without sleeping.
	now func() int64
}

// New validates cfg and creates a Server (not yet listening). With
// persistence configured, New locks the data directory, migrates old
// layouts, and warm-restarts every shard before returning.
func New(cfg Config) (*Server, error) {
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("kvserver: MemoryBytes must be positive")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("kvserver: Shards must be in [1, %d], got %d", MaxShards, cfg.Shards)
	}
	if cfg.Policy == "" {
		cfg.Policy = "camp"
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeByte
	}
	if cfg.Precision == 0 {
		cfg.Precision = core.DefaultPrecision
	}
	if cfg.ItemOverhead == 0 {
		cfg.ItemOverhead = DefaultItemOverhead
	}
	if cfg.MaxValueBytes == 0 {
		cfg.MaxValueBytes = 8 << 20
	}
	if len(cfg.TenantReserves) > 0 {
		var sum int64
		for name, res := range cfg.TenantReserves {
			if _, ok := parseTenantName([]byte(name)); !ok {
				return nil, fmt.Errorf("%w: bad tenant name %q", errBadConfig, name)
			}
			if res < 0 {
				return nil, fmt.Errorf("%w: negative reserve for tenant %q", errBadConfig, name)
			}
			sum += res
		}
		if sum > cfg.MemoryBytes {
			return nil, fmt.Errorf("%w: tenant reserves (%d bytes) exceed MemoryBytes (%d)", errBadConfig, sum, cfg.MemoryBytes)
		}
	}
	if len(cfg.TenantQuotas) > 0 {
		for name, q := range cfg.TenantQuotas {
			if _, ok := parseTenantName([]byte(name)); !ok {
				return nil, fmt.Errorf("%w: bad tenant name %q", errBadConfig, name)
			}
			if q.OpsPerSec < 0 || q.MaxBytesInFlight < 0 {
				return nil, fmt.Errorf("%w: negative quota for tenant %q", errBadConfig, name)
			}
		}
	}
	cfg.tenants = newTenantRegistry()
	s := &Server{
		cfg:          cfg,
		tenants:      cfg.tenants,
		conns:        make(map[net.Conn]struct{}),
		feeds:        make(map[*feedStat]struct{}),
		stopBg:       make(chan struct{}),
		started:      time.Now(),
		writeTimeout: connWriteTimeout,
		now:          func() int64 { return time.Now().UnixNano() },
	}
	if th := cfg.SlowlogThreshold; th != 0 {
		s.metrics.slowlog.SetThreshold(th)
	} else {
		s.metrics.slowlog.SetThreshold(DefaultSlowlogThreshold)
	}
	// Capacity splits evenly; shard 0 absorbs the remainder, as the root
	// camp.Cache's sharding does.
	per := cfg.MemoryBytes / int64(cfg.Shards)
	rem := cfg.MemoryBytes % int64(cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		shardCfg := cfg
		shardCfg.MemoryBytes = per
		if i == 0 {
			shardCfg.MemoryBytes += rem
		}
		shardCfg.shardSlot = i
		st, err := newStore(shardCfg)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &shard{
			srv:      s,
			store:    st,
			missedAt: make(map[string]int64),
		})
	}
	s.copiesValues = s.shards[0].store.lay.copiesValues()
	if p := cfg.Persist; p != nil {
		if p.Dir == "" {
			return nil, fmt.Errorf("kvserver: Persist.Dir is required")
		}
		if err := s.openPersistence(); err != nil {
			return nil, fmt.Errorf("kvserver: recover: %w", err)
		}
		// The compactor and the health prober run for the server's whole
		// life (not just while listening): size-triggered and interval
		// snapshots, and degraded-shard recovery, all happen off the
		// request path here.
		s.compactC = make(chan *shard, len(s.shards))
		s.probeC = make(chan struct{}, 1)
		s.wg.Add(2)
		go s.compactorLoop()
		go s.proberLoop(p.ProbeMin, p.ProbeMax)
	}
	// Configured reserves apply after recovery, so operator flags win over
	// journaled quotas; journaling them back makes a flag-created tenant
	// durable even before its first key.
	for name, res := range cfg.TenantReserves {
		t, _ := s.tenants.ensure(name)
		t.reserve.Store(res)
		s.journalTenant(t)
	}
	s.flushJournals()
	// Quotas are deployment config, never journaled: attach them to the
	// registry entries so every connection's resolved *tenant carries its
	// limits and the hot path pays one nil check.
	for name, q := range cfg.TenantQuotas {
		t, _ := s.tenants.ensure(name)
		t.quota = newTenantQuota(q)
	}
	if cfg.ReplicaOf != "" {
		s.readOnly.Store(true)
		s.repl = newReplicaSession(s, cfg.ReplicaOf)
	}
	s.buildRegistry()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Persist != nil && s.cfg.Persist.Logf != nil {
		s.cfg.Persist.Logf(format, args...)
	}
}

// Start begins listening and serving connections.
func (s *Server) Start() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("kvserver: listen: %w", err)
	}
	s.ln = ln
	if s.cfg.MetricsAddr != "" {
		if err := s.startMetricsHTTP(s.cfg.MetricsAddr); err != nil {
			ln.Close()
			s.ln = nil
			return err
		}
	}
	s.wg.Add(1)
	s.clients.Add(1)
	go s.acceptLoop()
	if s.repl != nil {
		s.repl.start()
	}
	return nil
}

// requestCompact schedules an off-lock compaction of sh. Dropping the
// request when the queue is full is fine: the journal keeps growing and the
// next append re-triggers it.
func (s *Server) requestCompact(sh *shard) {
	select {
	case s.compactC <- sh:
	default:
	}
}

// compactorLoop runs the size-triggered snapshot cycles the journal path
// requests, one shard at a time, so any stall is bounded to a single shard's
// copy-out — the disk write happens with no lock held at all.
func (s *Server) compactorLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopBg:
			return
		case sh := <-s.compactC:
			sh.compact()
		}
	}
}

// Snapshot forces a snapshot-then-truncate compaction of every shard now.
// It is a no-op without persistence.
func (s *Server) Snapshot() {
	for _, sh := range s.shards {
		sh.compact()
	}
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server (a hard stop: live connections close at once) and
// flushes the persistence subsystem: every shard's journal is synced.
func (s *Server) Close() error {
	err, wasOpen := s.stop(0)
	if wasOpen && s.cfg.Persist != nil {
		err = s.closeJournals(err)
	}
	return err
}

// closeJournals closes every shard's manager (flushing and syncing its
// journal) and releases the data directory, keeping the first error.
func (s *Server) closeJournals(err error) error {
	for _, sh := range s.shards {
		if sh.mgr == nil {
			continue
		}
		if cerr := sh.mgr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if rerr := s.rootLock.Release(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// Shutdown drains the server gracefully, the SIGTERM path (stop with a grace
// window), then flushes and snapshots the healthy shards. Every client
// connection finishes the pipeline it has in flight, and every follower
// receives the journal up to its end, so a follower holds each write the
// primary acknowledged before Shutdown returned. Degraded shards are skipped
// by the final snapshot: their state is cache-only by contract, and their
// journals were already detached. A second Shutdown (or a Close after it) is
// a no-op.
func (s *Server) Shutdown(grace time.Duration) error {
	err, wasOpen := s.stop(grace)
	if wasOpen && s.cfg.Persist != nil {
		s.Snapshot()
		err = s.closeJournals(err)
	}
	return err
}

// Kill tears the server down without flushing persistence — no final
// journal sync, no shutdown snapshot — simulating a crash for recovery
// tests and demos. Orderly shutdown is Close.
func (s *Server) Kill() {
	if _, wasOpen := s.stop(0); !wasOpen {
		return
	}
	for _, sh := range s.shards {
		if sh.mgr != nil {
			sh.mgr.Kill()
		}
	}
	// A real crash drops the flock with the process; release it so a
	// recovering server in the same process can take the directory over.
	s.rootLock.Release()
}

// stop is the server's one stop sequence: stop accepting, the replica
// streams and the metrics endpoint, and wait for every goroutine. A drain
// lets each connection finish the pipeline it has buffered until the grace
// deadline (its next socket read past it ends its loop), then, once every
// client handler has flushed its journal records, wakes the background
// waits: each replication feed streams the journal to its end. A hard stop
// (grace <= 0) closes the connections and wakes the waits at once. A
// connection still open a second past the grace (a peer that stopped
// reading) is closed. wasOpen is false if the server was already stopped.
func (s *Server) stop(grace time.Duration) (err error, wasOpen bool) {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil, false
	}
	s.closed = true
	s.drainBy = time.Now().Add(grace)
	for c := range s.conns {
		c.SetReadDeadline(s.drainBy)
	}
	s.connMu.Unlock()
	if grace <= 0 {
		s.closeConns()
		close(s.stopBg)
	}
	// A drain keeps accepting for a moment, and acceptLoop closes the
	// listener once its deadline passes: a close would reset the connections
	// the kernel has already completed, under their pipelined bytes.
	if l, ok := s.ln.(*net.TCPListener); ok && grace > 0 {
		err = l.SetDeadline(time.Now().Add(min(grace, acceptDrain)))
	} else if s.ln != nil {
		err = s.ln.Close()
	}
	if s.repl != nil {
		s.repl.stopAll()
	}
	if s.metricsSrv != nil {
		s.metricsSrv.Close()
	}
	done := make(chan struct{})
	go func() {
		s.clients.Wait()
		if grace > 0 {
			close(s.stopBg)
		}
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace + time.Second):
		s.closeConns()
		<-done
	}
	return err, true
}

func (s *Server) closeConns() {
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
}

// acceptRejectBackoff bounds the pause after a -max-conns rejection; the
// first rejection waits 1ms, doubling up to this cap while the server stays
// over the limit.
const acceptRejectBackoff = 50 * time.Millisecond

// acceptDrain bounds how long a graceful stop keeps taking the connections
// the kernel completed before it began.
const acceptDrain = 100 * time.Millisecond

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	defer s.clients.Done()
	defer s.ln.Close()
	rejectPause := time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed, or a drain's accept deadline passed
		}
		if max := s.cfg.MaxConns; max > 0 && s.counters.currConns.Load() >= int64(max) {
			// Over the accept limit: refuse and pause before the next
			// accept. The pause is what contains the blast radius of a
			// reconnect storm — without it a rejected client retrying in a
			// tight loop would spin this goroutine at accept speed.
			s.counters.acceptRejected.Add(1)
			conn.Close()
			time.Sleep(rejectPause)
			if rejectPause *= 2; rejectPause > acceptRejectBackoff {
				rejectPause = acceptRejectBackoff
			}
			continue
		}
		rejectPause = time.Millisecond
		// One wrapper allocation per connection (not per op) buys the
		// bytes_read/bytes_written stats for every byte that crosses the
		// socket, replication feeds included.
		counted := &countedConn{Conn: conn, srv: s}
		s.connMu.Lock()
		if s.closed {
			// Accepted before stop: serve it to the drain deadline, as any
			// live connection (a close would reset its pipelined bytes).
			if !time.Now().Before(s.drainBy) {
				s.connMu.Unlock()
				conn.Close()
				return
			}
			conn.SetReadDeadline(s.drainBy)
		}
		s.conns[counted] = struct{}{}
		s.connMu.Unlock()
		s.counters.totalConns.Add(1)
		// Counted here, not in serveConn: the accept-limit check above must
		// see a connection the instant it is admitted, or a burst of accepts
		// would all pass the check before any handler goroutine ran.
		s.counters.currConns.Add(1)
		s.wg.Add(1)
		s.clients.Add(1)
		go s.serveConn(counted)
	}
}

// connWriteTimeout bounds each socket write of every accepted connection,
// client or replication feed: one Conn.Write — a full buffer, or a larger
// value that bufio passes through whole — must complete within it (a FULLSYNC
// snapshot is copied through the buffer, one full buffer per write). A stream of writes has no total limit; a peer that stops reading
// pins its goroutine, its staging (on a feed, journal segments) this long.
const connWriteTimeout = 30 * time.Second

// countedConn is the server's end of one accepted connection. It charges
// socket traffic to the server-wide byte counters, arms connWriteTimeout on
// every socket write, and owns the one flush rule: replies staged in w (the
// connState's writer) leave immediately before a socket read — the only
// place the request loop waits for the peer, whether for a command line, a
// payload or a drained data block — so no handler flushes. A pipelined
// client's replies go out grouped per read; a request/response client's
// buffer is empty again before each read, so it sees no change. Journal
// records follow the same rule one step earlier (flushJournals): before the
// wait, and before any byte goes to the socket — including a large reply that
// spills from w mid-pipeline — so nothing a client has been told or shown is
// absent from the OS (under -fsync always, from the disk).
type countedConn struct {
	net.Conn
	srv *Server
	w   *bufio.Writer
}

func (c *countedConn) Read(p []byte) (int, error) {
	c.srv.flushJournals()
	if err := c.w.Flush(); err != nil { // a no-op when nothing is staged
		return 0, err
	}
	n, err := c.Conn.Read(p)
	c.srv.counters.bytesRead.Add(uint64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.srv.flushJournals()
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.srv.writeTimeout)); err != nil {
		return 0, err
	}
	n, err := c.Conn.Write(p)
	c.srv.counters.bytesWritten.Add(uint64(n))
	return n, err
}

// errCloseConn makes a handler close the connection after its reply has been
// written: the stream position is no longer trustworthy (e.g. a storage
// command whose payload length never parsed), so resynchronization is
// impossible and continuing would misread payload bytes as commands.
var errCloseConn = errors.New("kvserver: close connection")

func (s *Server) serveConn(conn *countedConn) {
	defer s.wg.Done()
	defer func() {
		// Blast-radius containment: a panic anywhere in this connection's
		// command handling closes this connection only. It is counted
		// (conn_panics) and logged with the stack; every other connection —
		// and the server — keeps running.
		if r := recover(); r != nil {
			s.counters.connPanics.Add(1)
			s.logf("kvserver: connection handler panic: %v\n%s", r, debug.Stack())
		}
		s.counters.currConns.Add(-1)
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	cs := getConnState(conn)
	// quit, a fatal handler error and an over-long line end the loop without
	// another socket read: what they leave staged (the final CLIENT_ERROR,
	// every earlier pipelined reply) goes out here, before the close — and so
	// do the records of noreply mutations nothing was staged for.
	defer func() {
		s.flushJournals()
		cs.w.Flush()
		if !cs.feed {
			s.clients.Done() // its records are in the journal files now
		}
		putConnState(cs)
	}()
	for {
		line, err := cs.lr.ReadLine()
		if err != nil {
			if err == proto.ErrLineTooLong {
				// Tell the client why before dropping it (the old
				// unbounded reader was a memory DoS surface; a command
				// this long is a confused or hostile peer — and if it was
				// a storage command, a data block may follow, so
				// continuing would desync anyway).
				cs.w.Write(replyLineTooLong)
			}
			return
		}
		if err := s.dispatch(line, cs); err != nil {
			return
		}
	}
}

// handleFlushAll serves "flush_all" (the connection's tenant) and the
// "flush_all all" admin form (every tenant): grammar first, then the replica
// gate, the order mutate keeps for the keyed mutations.
func (s *Server) handleFlushAll(args [][]byte, cs *connState) error {
	t := s.tenantOf(cs)
	switch {
	case len(args) == 0:
	case len(args) == 1 && string(args[0]) == "all":
		t = nil
	default:
		return cs.send(replyBadFlush)
	}
	if s.readOnly.Load() {
		return cs.send(replyReadOnly)
	}
	s.flushAll(t)
	return cs.send(replyOK)
}

// flushAll empties every shard — all of it when t is nil (the
// "flush_all all" admin form, journaled as the legacy keyless flush record),
// or one tenant's namespace when t names one (journaled keyed, so replicas
// and warm restarts replay the same scoping). Each shard flushes atomically
// under its own lock and journals the record (making the emptiness durable
// even if the compaction below fails); across shards the flush is not a
// single atomic point — a concurrent writer may land a set on an
// already-flushed shard — matching multi-node memcached semantics.
func (s *Server) flushAll(t *tenant) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if t == nil {
			sh.store.flush()
			sh.missedAt = make(map[string]int64)
			sh.journalLocked(persist.Op{Kind: persist.KindFlush})
		} else {
			sh.store.flushTenant(t.name)
			for k := range sh.missedAt {
				if tenantOwnsKey(t, k) {
					delete(sh.missedAt, k)
				}
			}
			sh.journalLocked(persist.Op{Kind: persist.KindFlush, Key: t.name})
		}
		sh.mu.Unlock()
		// Compact synchronously (off-lock) so the truncated journal is on
		// disk by the time the client sees OK, as before sharding.
		sh.compact()
	}
}

func (s *Server) handleGet(keys [][]byte, cs *connState) error {
	if len(keys) == 0 {
		return cs.send(replyGetNoKey)
	}
	// One cmd_get per command, as memcached counts it; hits and misses stay
	// per-key. A multiget charges the first key's shard, one histogram
	// observation per command. Keys namespace through the connection's
	// tenant (pooled scratch, no allocation); a key containing the NUL
	// namespace delimiter could forge another tenant's prefix, so it is
	// answered as a miss without touching the store.
	s.counters.cmds[verbGet].Add(1)
	tn := s.tenantOf(cs)
	cs.shardIdx = shardIndex(cs.nsKeyFor(keys[0]), len(s.shards))
	now := s.now()
	if tq := tn.quota; tq != nil && tq.shedReads && !tq.allowOp(now) {
		tn.quotaShed.Add(1)
		return cs.send(replyOverQuota)
	}
	// Items are rewritten in place and a copying layout relocates value
	// bytes, so nothing read here survives the shard lock: each hit's whole
	// VALUE block is staged into the pooled reply scratch while it is held.
	cs.out = cs.out[:0]
	for _, k := range keys {
		if err := cs.drainStaged(); err != nil {
			return err
		}
		if bytes.IndexByte(k, 0) >= 0 {
			s.counters.getMisses.Add(1)
			tn.misses.Add(1)
			continue
		}
		nk := cs.nsKeyFor(k)
		sh := s.shardForBytes(nk)
		sh.mu.Lock()
		it, ok := lookup(sh.store, nk, now)
		if !ok {
			if !s.cfg.DisableIQ {
				sh.recordMissLocked(string(nk), now)
			}
			sh.mu.Unlock()
			s.counters.getMisses.Add(1)
			tn.misses.Add(1)
			continue
		}
		value := sh.store.lay.value(it)
		out := append(cs.out, "VALUE "...)
		out = append(out, k...)
		out = append(out, ' ')
		out = strconv.AppendUint(out, uint64(it.flags), 10)
		out = append(out, ' ')
		out = strconv.AppendInt(out, int64(len(value)), 10)
		out = append(out, '\r', '\n')
		out = append(out, value...)
		cs.out = append(out, '\r', '\n')
		cost := it.node.Cost
		sh.mu.Unlock()
		s.counters.getHits.Add(1)
		tn.hits.Add(1)
		tn.costSaved.Add(uint64(cost))
	}
	cs.out = append(cs.out, replyEnd...)
	return cs.send(cs.out)
}

func (s *Server) handleDebug(args [][]byte, cs *connState) error {
	if len(args) != 1 {
		return cs.send(replyDebugNoKey)
	}
	if bytes.IndexByte(args[0], 0) >= 0 {
		return cs.send(replyNotFound)
	}
	key := cs.nsKeyFor(args[0])
	sh := s.shardForBytes(key)
	sh.mu.Lock()
	reply := replyNotFound
	if it, ok := resident(sh.store, key, s.now()); ok {
		out := append(cs.out[:0], "DEBUG "...)
		out = append(out, args[0]...)
		out = append(out, " size="...)
		out = strconv.AppendInt(out, it.node.Size, 10)
		out = append(out, " cost="...)
		out = strconv.AppendInt(out, it.node.Cost, 10)
		out = append(out, " flags="...)
		out = strconv.AppendUint(out, uint64(it.flags), 10)
		cs.out = append(out, '\r', '\n')
		reply = cs.out
	}
	sh.mu.Unlock()
	return cs.send(reply)
}

var errBadConfig = errors.New("kvserver: bad configuration")
