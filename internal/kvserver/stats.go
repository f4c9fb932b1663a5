// The stats surface. Every figure the server reports is one row of the table
// of its scope — server, shard, tenant or follower shard — naming its STAT
// line, the "stats" total a per-shard figure sums into, its Prometheus family,
// and how to read it from the scope's sample. Three renderers draw every
// format from the rows: prefixed STAT lines ("stats", "stats shards", "stats
// tenants", "replica status"), the per-shard totals in "stats", and one
// Prometheus family per row. Written by hand are only the identity and config
// strings, the per-verb figures, the histograms, the feed gauges, and the two
// persistence families that carry samples on servers whose STAT lines for
// them are absent.
package kvserver

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"camp/internal/alloc"
	"camp/internal/metrics"
	"camp/internal/persist"
)

// counters are the server-wide operation counts. They are atomics rather
// than a mutex-guarded map so the request path never shares a lock across
// shards: a shard only ever touches its own mutex plus these cache-line
// increments.
type counters struct {
	// cmds counts commands per keyed verb, indexed by verbID.
	cmds                            [verbOther]atomic.Uint64
	getHits, getMisses              atomic.Uint64
	setRejected                     atomic.Uint64
	persistErrors, persistSnapshots atomic.Uint64
	replSyncsServed                 atomic.Uint64
	replFullSyncsServed             atomic.Uint64

	// Blast-radius accounting: handler panics recovered (that connection
	// closed, the server survived) and connections refused at the -max-conns
	// accept limit.
	connPanics, acceptRejected atomic.Uint64

	// Connection and socket accounting (memcached's standard identity
	// stats). currConns is signed: it decrements on close.
	currConns                           atomic.Int64
	totalConns, bytesRead, bytesWritten atomic.Uint64
}

// A stat is one figure of a scope whose sample is an S.
type stat[S any] struct {
	// name follows the scope's prefix on the STAT line ("" for a figure only
	// Prometheus reports); total, on a per-shard row, names the "stats" line
	// the shards' values sum into ("" for none, same for the row's own name).
	name, total string
	// fam is the Prometheus family ("" for a wire-only figure). Its type is
	// counter when the name ends in _total, as Prometheus names counters,
	// and gauge otherwise.
	fam, help string
	// when, if set, says whether a sample has the figure at all: without it
	// there is neither a STAT line nor a sample.
	when func(*S) bool
	get  func(*S) int64
	// unit marks a duration, read in nanoseconds: its STAT line counts
	// units and its sample seconds, and never reads -1 in both.
	unit time.Duration
	// unsigned prints get's bits as a uint64: an ID that uses the top bit.
	unsigned bool
}

// same is the total of a per-shard figure whose "stats" line keeps its name.
const same = "="

// never is a duration figure's reading before its first event.
const never = math.MinInt64

// degradedStat is the same figure in "stats shards" and "replica status".
const degradedStat = "persist_degraded"

func (r *stat[S]) has(x *S) bool { return r.when == nil || r.when(x) }

func (r *stat[S]) wire(v int64) int64 {
	switch {
	case v == never:
		return -1
	case r.unit != 0:
		return v / int64(r.unit)
	}
	return v
}

func (r *stat[S]) metric(v int64) float64 {
	switch {
	case v == never:
		return -1
	case r.unit != 0:
		return float64(v) / float64(time.Second)
	}
	return float64(v)
}

// appendStats renders the figures x has as "STAT <prefix><name> <value>".
func appendStats[S any](out []byte, prefix string, rows []stat[S], x *S) []byte {
	for i := range rows {
		r := &rows[i]
		if r.name == "" || !r.has(x) {
			continue
		}
		if v := r.get(x); r.unsigned {
			out = appendStat(out, prefix+r.name, uint64(v))
		} else {
			out = appendStatInt(out, prefix+r.name, r.wire(v))
		}
	}
	return out
}

// appendTotals renders the "stats" lines per-shard rows sum into; a total
// no sample has a figure for is absent.
func appendTotals[S any](out []byte, rows []stat[S], xs []S) []byte {
	for i := range rows {
		r := &rows[i]
		if r.total == "" {
			continue
		}
		var sum int64
		n := 0
		for j := range xs {
			if r.has(&xs[j]) {
				sum += r.get(&xs[j])
				n++
			}
		}
		name := r.total
		if name == same {
			name = r.name
		}
		if n > 0 {
			out = appendStatInt(out, name, sum)
		}
	}
	return out
}

// register adds one Prometheus family per row that names one. At scrape
// time each visits the scope's samples, passing each one's labels.
func register[S any](reg *metrics.Registry, rows []stat[S], each func(emit func(x *S, labels ...string))) {
	for i := range rows {
		r := &rows[i]
		if r.fam == "" {
			continue
		}
		typ := metrics.TypeGauge
		if strings.HasSuffix(r.fam, "_total") {
			typ = metrics.TypeCounter
		}
		reg.Register(r.fam, r.help, typ, func(tw *metrics.TextWriter) {
			each(func(x *S, labels ...string) {
				if r.has(x) {
					tw.Sample("", r.metric(r.get(x)), labels...)
				}
			})
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func persisted(s *Server) bool { return s.cfg.Persist != nil }

var serverStats = []stat[Server]{
	{name: "uptime", unit: time.Second, fam: "camp_uptime_seconds", help: "Seconds since the server started.",
		get: func(s *Server) int64 { return int64(time.Since(s.started)) }},
	{name: "pointer_size", get: func(*Server) int64 { return strconv.IntSize }},
	{name: "curr_connections", fam: "camp_connections_current", help: "Open client connections.",
		get: func(s *Server) int64 { return s.counters.currConns.Load() }},
	{name: "total_connections", fam: "camp_connections_total", help: "Connections accepted since start.",
		get: func(s *Server) int64 { return int64(s.counters.totalConns.Load()) }},
	{name: "bytes_read", fam: "camp_bytes_read_total", help: "Bytes read from client sockets.",
		get: func(s *Server) int64 { return int64(s.counters.bytesRead.Load()) }},
	{name: "bytes_written", fam: "camp_bytes_written_total", help: "Bytes written to client sockets.",
		get: func(s *Server) int64 { return int64(s.counters.bytesWritten.Load()) }},
	{name: "get_hits", fam: "camp_get_hits_total", help: "Per-key get hits.",
		get: func(s *Server) int64 { return int64(s.counters.getHits.Load()) }},
	{name: "get_misses", fam: "camp_get_misses_total", help: "Per-key get misses.",
		get: func(s *Server) int64 { return int64(s.counters.getMisses.Load()) }},
	{name: "set_rejected", get: func(s *Server) int64 { return int64(s.counters.setRejected.Load()) }},
	{name: "conn_panics", fam: "camp_conn_panics_total", help: "Handler panics recovered; each closed its connection, the server survived.",
		get: func(s *Server) int64 { return int64(s.counters.connPanics.Load()) }},
	{name: "accept_rejected_maxconns", fam: "camp_accept_rejected_maxconns_total", help: "Connections refused at the -max-conns accept limit.",
		get: func(s *Server) int64 { return int64(s.counters.acceptRejected.Load()) }},
	{name: "limit_maxbytes", fam: "camp_limit_bytes", help: "Configured cache capacity in bytes.",
		get: func(s *Server) int64 { return s.cfg.MemoryBytes }},
	{name: "shards", get: func(s *Server) int64 { return int64(len(s.shards)) }},
	{name: "tenants", get: func(s *Server) int64 { return int64(s.tenants.count()) }},
	{name: "repl_syncs_served", when: persisted, get: func(s *Server) int64 { return int64(s.counters.replSyncsServed.Load()) }},
	{name: "repl_full_syncs_served", when: persisted, get: func(s *Server) int64 { return int64(s.counters.replFullSyncsServed.Load()) }},
	{name: "repl_live_feeds", when: persisted, get: func(s *Server) int64 { s.feedMu.Lock(); defer s.feedMu.Unlock(); return int64(len(s.feeds)) }},
	// The newest journal generation of any shard.
	{name: "persist_gen", when: persisted, get: func(s *Server) (gen int64) {
		for _, sh := range s.shards {
			gen = max(gen, int64(sh.mgr.Info().Generation))
		}
		return gen
	}},
	{name: "persist_errors", when: persisted, get: func(s *Server) int64 { return int64(s.counters.persistErrors.Load()) }},
	{name: "persist_snapshots", when: persisted, get: func(s *Server) int64 { return int64(s.counters.persistSnapshots.Load()) }},
	{name: "restored_snapshot_ops", when: persisted, get: func(s *Server) int64 { return int64(s.recovered.SnapshotOps) }},
	{name: "restored_aof_ops", when: persisted, get: func(s *Server) int64 { return int64(s.recovered.ReplayedOps) }},
	{name: "restored_truncated_bytes", when: persisted, get: func(s *Server) int64 { return s.recovered.TruncatedBytes }},
	{fam: "camp_slowlog_entries", help: "Slow commands currently retained.",
		get: func(s *Server) int64 { return int64(s.metrics.slowlog.Len()) }},
	{fam: "camp_slowlog_threshold_seconds", help: "Current slowlog threshold.", unit: time.Second,
		get: func(s *Server) int64 { return int64(s.metrics.slowlog.Threshold()) }},
}

// shardSample is one shard's figures, read once per render: the store's
// under sh.mu, the journal's, the degraded flag and the histograms outside it.
type shardSample struct {
	items, bytes, missTable, queues int64 // queues is -1 for an ordering without queues
	evictions, rejected, reclaimed  uint64
	arena                           alloc.ArenaStats
	packed, journaled, degraded     bool
	journal                         persist.Info
	lat, lock                       metrics.HistogramSnapshot
}

func (s *Server) sampleShards() []shardSample {
	xs := make([]shardSample, len(s.shards))
	for i, sh := range s.shards {
		x := &xs[i]
		sh.mu.Lock()
		st := sh.store
		x.items, x.bytes, x.missTable = int64(st.items.Len()), st.used(), int64(len(sh.missedAt))
		x.queues = int64(st.queueCount())
		x.evictions, x.rejected, x.reclaimed = st.evictions(), st.rejected(), st.reclaimed()
		x.arena, x.packed = st.lay.stats()
		sh.mu.Unlock()
		if x.journaled = sh.mgr != nil; x.journaled {
			x.journal = sh.mgr.Info()
		}
		x.degraded = sh.degraded.Load()
		x.lat, x.lock = sh.latHist.Snapshot(), sh.lockHist.Snapshot()
	}
	return xs
}

func packed(x *shardSample) bool    { return x.packed }
func journaled(x *shardSample) bool { return x.journaled }

var shardStats = []stat[shardSample]{
	{name: "items", total: "curr_items", fam: "camp_shard_items", help: "Live items per shard.",
		get: func(x *shardSample) int64 { return x.items }},
	{name: "bytes", total: same, fam: "camp_shard_bytes", help: "Bytes charged per shard.",
		get: func(x *shardSample) int64 { return x.bytes }},
	{name: "evictions", total: same, fam: "camp_shard_evictions_total", help: "Policy evictions per shard.",
		get: func(x *shardSample) int64 { return int64(x.evictions) }},
	// Admission pressure: how many stores the eviction policy refused.
	{name: "rejected_sets", total: same, fam: "camp_shard_rejected_sets_total", help: "Sets refused by the eviction policy per shard.",
		get: func(x *shardSample) int64 { return int64(x.rejected) }},
	// Reclaimed lazily: on access plus the incremental sweep mutations run.
	{name: "expired_reclaimed", total: same, fam: "camp_shard_expired_reclaimed_total", help: "Expired items reclaimed lazily per shard.",
		get: func(x *shardSample) int64 { return int64(x.reclaimed) }},
	// Get misses still waiting for the set that turns the elapsed time into
	// a cost.
	{name: "iq_miss_table", total: "iq_miss_table_entries", fam: "camp_shard_iq_miss_table", help: "Pending IQ miss-table entries per shard.",
		get: func(x *shardSample) int64 { return x.missTable }},
	{name: "ops", get: func(x *shardSample) int64 { return int64(x.lat.Count) }},
	{name: "p99_us", unit: time.Microsecond, get: func(x *shardSample) int64 { return int64(x.lat.Quantile(0.99)) }},
	{name: "lock_holds", get: func(x *shardSample) int64 { return int64(x.lock.Count) }},
	{name: "lock_p99_us", unit: time.Microsecond, get: func(x *shardSample) int64 { return int64(x.lock.Quantile(0.99)) }},
	{name: "arena_live_bytes", when: packed, fam: "camp_shard_arena_live_bytes", help: "Live packed-record bytes per shard arena.",
		get: func(x *shardSample) int64 { return x.arena.LiveBytes }},
	{name: "arena_dead_bytes", when: packed, fam: "camp_shard_arena_dead_bytes", help: "Dead (overwritten or deleted) record bytes awaiting compaction per shard arena.",
		get: func(x *shardSample) int64 { return x.arena.DeadBytes }},
	{name: "arena_held_bytes", when: packed, fam: "camp_shard_arena_held_bytes", help: "Segment bytes held from the budget per shard arena.",
		get: func(x *shardSample) int64 { return x.arena.HeldBytes }},
	{name: "arena_segments", when: packed, fam: "camp_shard_arena_segments", help: "Segments held per shard arena.",
		get: func(x *shardSample) int64 { return int64(x.arena.Segments) }},
	{name: "arena_compactions", when: packed, fam: "camp_shard_arena_compactions_total", help: "Segments fully compacted and recycled per shard arena.",
		get: func(x *shardSample) int64 { return int64(x.arena.Compactions) }},
	{name: "arena_relocated_bytes", when: packed, fam: "camp_shard_arena_relocated_bytes_total", help: "Live record bytes relocated by the compactor per shard arena.",
		get: func(x *shardSample) int64 { return int64(x.arena.RelocatedBytes) }},
	{name: "journal_gen", when: journaled, fam: "camp_shard_journal_generation", help: "Current journal generation per shard.",
		get: func(x *shardSample) int64 { return int64(x.journal.Generation) }},
	{name: "journal_bytes", total: "aof_bytes", when: journaled, fam: "camp_shard_journal_bytes", help: "Journal segment size per shard.",
		get: func(x *shardSample) int64 { return x.journal.AOFSize }},
	{name: "compactions", total: "persist_compactions", when: journaled, fam: "camp_shard_compactions_total", help: "Snapshot-compaction cycles per shard.",
		get: func(x *shardSample) int64 { return int64(x.journal.Compactions) }},
	{name: degradedStat, total: same, when: journaled, get: func(x *shardSample) int64 { return b2i(x.degraded) }},
	// Non-empty CAMP queues across tenants.
	{total: "camp_queues", when: func(x *shardSample) bool { return x.queues >= 0 },
		get: func(x *shardSample) int64 { return x.queues }},
}

// tenantSample is one tenant's figures; residency sums across shards.
type tenantSample struct {
	t                       *tenant
	bytes, items, evictions int64
}

// sampleTenants reads every tenant, default first and then by name, taking
// one shard lock at a time.
func (s *Server) sampleTenants() []tenantSample {
	list := s.tenants.list()
	xs := make([]tenantSample, len(list))
	byName := make(map[string]*tenantSample, len(list))
	for i, t := range list {
		xs[i].t = t
		byName[t.name] = &xs[i]
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.store.visitTenantUsage(func(name string, used int64, items int, evictions uint64) {
			if x := byName[name]; x != nil {
				x.bytes += used
				x.items += int64(items)
				x.evictions += int64(evictions)
			}
		})
		sh.mu.Unlock()
	}
	return xs
}

var tenantStats = []stat[tenantSample]{
	{name: "bytes", fam: "camp_tenant_bytes", help: "Bytes resident per tenant.",
		get: func(x *tenantSample) int64 { return x.bytes }},
	{name: "reserved_bytes", fam: "camp_tenant_reserved_bytes", help: "Configured reserved quota per tenant.",
		get: func(x *tenantSample) int64 { return x.t.reserve.Load() }},
	{name: "items", fam: "camp_tenant_items", help: "Items resident per tenant.",
		get: func(x *tenantSample) int64 { return x.items }},
	{name: "hits", fam: "camp_tenant_hits_total", help: "Get hits per tenant.",
		get: func(x *tenantSample) int64 { return int64(x.t.hits.Load()) }},
	{name: "misses", fam: "camp_tenant_misses_total", help: "Get misses per tenant.",
		get: func(x *tenantSample) int64 { return int64(x.t.misses.Load()) }},
	{name: "cost_saved", fam: "camp_tenant_cost_saved_total", help: "Summed cost of get hits per tenant (the CAMP objective).",
		get: func(x *tenantSample) int64 { return int64(x.t.costSaved.Load()) }},
	{name: "evictions", fam: "camp_tenant_evictions_total", help: "Policy evictions per tenant since its last flush.",
		get: func(x *tenantSample) int64 { return x.evictions }},
	{name: "quota_shed", fam: "camp_tenant_quota_shed_total", help: "Requests answered 'tenant over quota' per tenant.",
		get: func(x *tenantSample) int64 { return int64(x.t.quotaShed.Load()) }},
}

// followerSample is one follower shard stream's replication state.
type followerSample struct {
	connected, degraded            bool
	gen, runID                     uint64
	off                            int64
	durable                        persist.Position
	fullSyncs, reconnects, applied uint64
	// age is the time since the stream last delivered a frame or ping (the
	// primary pings every second while idle): never before the first
	// successful handshake.
	age int64
}

// sampleFollowers reads this server's follower streams, one per shard; none
// on a server that never replicated.
func (s *Server) sampleFollowers() []followerSample {
	if s.repl == nil {
		return nil
	}
	xs := make([]followerSample, len(s.repl.reps))
	for i, sr := range s.repl.reps {
		x := &xs[i]
		sr.sh.mu.Lock()
		x.durable = sr.sh.replPos
		sr.sh.mu.Unlock()
		sr.mu.Lock()
		x.connected, x.gen, x.off, x.runID = sr.connected, sr.gen, sr.off, sr.runID
		x.fullSyncs, x.reconnects, x.applied = sr.fullSyncs, sr.reconnects, sr.applied
		sr.mu.Unlock()
		x.degraded = sr.sh.degraded.Load()
		x.age = never
		if last := sr.lastFrame.Load(); last != 0 {
			x.age = int64(time.Since(time.Unix(0, last)))
		}
	}
	return xs
}

var followerStats = []stat[followerSample]{
	{name: "connected", total: "repl_connected_shards", fam: "camp_repl_connected", help: "Whether the shard's replication stream is live.",
		get: func(x *followerSample) int64 { return b2i(x.connected) }},
	{name: "gen", get: func(x *followerSample) int64 { return int64(x.gen) }},
	{name: "offset", get: func(x *followerSample) int64 { return x.off }},
	{name: "run_id", unsigned: true, get: func(x *followerSample) int64 { return int64(x.runID) }},
	// The position a restart would resume from (journaled atomically with
	// the applied ops); durable 0 means none is persisted and a restart
	// would full-resync.
	{name: "durable", fam: "camp_repl_durable_position", help: "Whether a restart would resume with CONTINUE (1) or full resync (0).",
		get: func(x *followerSample) int64 { return b2i(x.durable.RunID != 0) }},
	{name: "durable_gen", get: func(x *followerSample) int64 { return int64(x.durable.Gen) }},
	{name: "durable_offset", get: func(x *followerSample) int64 { return x.durable.Off }},
	{name: "full_syncs", get: func(x *followerSample) int64 { return int64(x.fullSyncs) }},
	{name: "reconnects", get: func(x *followerSample) int64 { return int64(x.reconnects) }},
	{name: "applied_ops", total: "repl_applied_ops", fam: "camp_repl_applied_ops_total", help: "Replicated ops applied per shard.",
		get: func(x *followerSample) int64 { return int64(x.applied) }},
	// Cache-only operation after a local persistence failure: applied ops
	// are not journaled and the durable position is frozen until the disk
	// heals.
	{name: degradedStat, get: func(x *followerSample) int64 { return b2i(x.degraded) }},
	{name: "last_frame_age_ms", unit: time.Millisecond, fam: "camp_repl_lag_seconds", help: "Seconds since the shard's stream last delivered a frame or ping.",
		get: func(x *followerSample) int64 { return x.age }},
}

// role is what "stats" and "replica status" report the server as.
func (s *Server) role() string {
	if s.readOnly.Load() {
		return "replica"
	}
	return "primary"
}

func shardPrefix(i int) string { return "shard" + strconv.Itoa(i) + "_" }

var replyBadStats = []byte("CLIENT_ERROR bad stats command (want latency, shards or tenants)\r\n")

// handleStats serves "stats" and its latency, shards and tenants forms.
// Each reads shards one lock at a time: stats never stall the keyspace.
func (s *Server) handleStats(args [][]byte, cs *connState) error {
	out := cs.out[:0]
	switch {
	case len(args) == 0:
		out = appendStatStr(out, "version", serverVersion)
		out = appendStatStr(out, "policy", s.shards[0].store.policy.Name())
		out = appendStatStr(out, "mode", s.cfg.Mode)
		out = appendStatStr(out, "role", s.role())
		if persisted(s) {
			out = appendStatStr(out, "aof_fsync", s.shards[0].mgr.Info().Fsync)
		}
		for v := verbGet; v < verbOther; v++ {
			out = appendStat(out, "cmd_"+verbNames[v], s.counters.cmds[v].Load())
		}
		out = appendStats(out, "", serverStats, s)
		out = appendTotals(out, shardStats, s.sampleShards())
		out = appendTotals(out, followerStats, s.sampleFollowers())
	case string(args[0]) == "latency":
		out = s.appendLatency(out)
	case string(args[0]) == "shards":
		for i, x := range s.sampleShards() {
			out = appendStats(out, shardPrefix(i), shardStats, &x)
		}
	case string(args[0]) == "tenants":
		for _, x := range s.sampleTenants() {
			out = appendStats(out, "tenant:"+x.t.name+":", tenantStats, &x)
		}
	default:
		return cs.send(replyBadStats)
	}
	cs.out = append(out, replyEnd...)
	return cs.send(cs.out)
}

// buildRegistry wires every metric family into the Prometheus registry: one
// per row of the four tables, and by hand the per-verb families, the
// histograms, the feed gauges and the two persistence families that sample
// every shard of every server. Families are collected at scrape time, so
// gauges are live; a family whose scope has no samples here (no follower
// streams, no arena) is still declared, so the family set a scraper sees is
// the same across roles and restarts.
func (s *Server) buildRegistry() {
	r := &s.metrics.registry
	labels := make([]string, len(s.shards))
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	register(r, serverStats, func(emit func(*Server, ...string)) { emit(s) })
	register(r, shardStats, func(emit func(*shardSample, ...string)) {
		for i, x := range s.sampleShards() {
			emit(&x, "shard", labels[i])
		}
	})
	register(r, tenantStats, func(emit func(*tenantSample, ...string)) {
		for _, x := range s.sampleTenants() {
			emit(&x, "tenant", x.t.name)
		}
	})
	register(r, followerStats, func(emit func(*followerSample, ...string)) {
		for i, x := range s.sampleFollowers() {
			emit(&x, "shard", labels[i])
		}
	})

	r.Register("camp_cmd_total", "Commands processed, by verb.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) {
			for v := verbGet; v < verbOther; v++ {
				tw.Sample("", float64(s.counters.cmds[v].Load()), "verb", verbNames[v])
			}
		})
	r.Register("camp_latency_seconds", "Command wall time, by verb.", metrics.TypeHistogram,
		func(tw *metrics.TextWriter) {
			for v := verbID(0); v < numVerbs; v++ {
				tw.Histogram(s.metrics.verbs[v].Snapshot(), "verb", verbNames[v])
			}
		})
	r.Register("camp_shard_latency_seconds", "Command wall time, by shard.", metrics.TypeHistogram,
		func(tw *metrics.TextWriter) {
			for i, sh := range s.shards {
				tw.Histogram(sh.latHist.Snapshot(), "shard", labels[i])
			}
		})
	r.Register("camp_shard_lock_hold_seconds", "Shard mutex hold time on the mutation path.", metrics.TypeHistogram,
		func(tw *metrics.TextWriter) {
			for i, sh := range s.shards {
				tw.Histogram(sh.lockHist.Snapshot(), "shard", labels[i])
			}
		})
	r.Register("camp_persist_errors_total", "Journal and snapshot failures across all shards.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.persistErrors.Load())) })
	r.Register("camp_shard_persist_degraded", "Whether the shard serves cache-only after a persistence failure (1) or journals normally (0).", metrics.TypeGauge,
		func(tw *metrics.TextWriter) {
			for i, sh := range s.shards {
				tw.Sample("", float64(b2i(sh.degraded.Load())), "shard", labels[i])
			}
		})

	// Primary-side replication: one sample set per live sync feed. The feed
	// label is a per-server-lifetime sequence number, so a reconnecting
	// follower shows up as a new series instead of silently aliasing.
	r.Register("camp_repl_feed_generation", "Journal generation each sync feed is streaming.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) {
			s.eachFeed(func(f *feedStat) {
				tw.Sample("", float64(f.gen.Load()), "shard", labels[f.shard], "feed", f.label)
			})
		})
	r.Register("camp_repl_feed_offset_bytes", "Journal offset each sync feed has reached.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) {
			s.eachFeed(func(f *feedStat) {
				tw.Sample("", float64(f.off.Load()), "shard", labels[f.shard], "feed", f.label)
			})
		})
	r.Register("camp_repl_feed_lag_bytes", "Bytes between each sync feed and its shard's journal head.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) {
			s.eachFeed(func(f *feedStat) {
				tw.Sample("", float64(s.feedLagBytes(f)), "shard", labels[f.shard], "feed", f.label)
			})
		})
}
