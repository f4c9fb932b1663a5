// Server-side metrics: per-verb and per-shard latency histograms, the
// slowlog, and the Prometheus registry behind -metrics-addr.
//
// Everything on the request path is allocation-free: dispatch resolves the
// verb with the same string-switch trick the command dispatch uses, copies
// the key into pooled per-connection scratch before the payload read
// invalidates the tokens, and records wall time with two atomic adds per
// histogram. The scrape paths — "stats latency", "stats shards", "slowlog
// get" and /metrics — copy the atomic state out and may allocate freely.
package kvserver

import (
	"strconv"
	"time"

	"camp/internal/alloc"
	"camp/internal/metrics"
	"camp/internal/persist"
	"camp/internal/proto"
)

// verbID indexes the per-verb latency histograms.
type verbID int8

const (
	verbGet verbID = iota
	verbSet
	verbAdd
	verbReplace
	verbAppend
	verbPrepend
	verbIncr
	verbDecr
	verbTouch
	verbDelete
	verbOther
	numVerbs

	// verbNone marks commands excluded from latency accounting: quit, and
	// the replication handshake verbs whose handlers hold the connection
	// open for the stream's lifetime (their "latency" would be the feed's).
	verbNone verbID = -1
)

// verbNames are the histogram labels, indexed by verbID. They are
// constants, so slowlog entries can retain them without copying.
var verbNames = [numVerbs]string{
	"get", "set", "add", "replace", "append", "prepend",
	"incr", "decr", "touch", "delete", "other",
}

// verbOf maps a command token to its verb. The string conversion in the
// switch compiles allocation-free, exactly like dispatch's.
func verbOf(tok []byte) verbID {
	switch string(tok) {
	case "get", "gets":
		return verbGet
	case "set":
		return verbSet
	case "add":
		return verbAdd
	case "replace":
		return verbReplace
	case "append":
		return verbAppend
	case "prepend":
		return verbPrepend
	case "incr":
		return verbIncr
	case "decr":
		return verbDecr
	case "touch":
		return verbTouch
	case "delete":
		return verbDelete
	case "quit", "replconf", "sync":
		return verbNone
	default:
		return verbOther
	}
}

// DefaultSlowlogThreshold is the slowlog threshold when the config leaves
// it zero.
const DefaultSlowlogThreshold = 10 * time.Millisecond

// srvMetrics is the server's instrumentation state. The histograms are
// embedded (not pointers) so Observe never chases an indirection.
type srvMetrics struct {
	verbs    [numVerbs]metrics.Histogram
	slowlog  metrics.Slowlog
	registry metrics.Registry
}

// observe records one completed command.
func (s *Server) observe(v verbID, shardIdx int, key []byte, d time.Duration, start time.Time) {
	s.metrics.verbs[v].Observe(d)
	if shardIdx >= 0 {
		s.shards[shardIdx].latHist.Observe(d)
	}
	if s.metrics.slowlog.Slow(d) {
		s.metrics.slowlog.Record(verbNames[v], key, d, start)
	}
}

var (
	replyBadStats   = []byte("CLIENT_ERROR bad stats command (want latency, shards or tenants)\r\n")
	replyBadSlowlog = []byte("CLIENT_ERROR bad slowlog command (want get, reset or threshold <ms>)\r\n")
)

// handleStatsLatency renders "stats latency": per-verb observation counts
// and log-bucket quantiles in microseconds. Every verb is always present,
// so the line set is stable for parsers.
func (s *Server) handleStatsLatency(cs *connState) error {
	out := cs.out[:0]
	for v := verbID(0); v < numVerbs; v++ {
		snap := s.metrics.verbs[v].Snapshot()
		name := verbNames[v]
		out = appendStat(out, name+"_count", snap.Count)
		out = appendStat(out, name+"_sum_us", uint64(snap.Sum/1e3))
		out = appendStat(out, name+"_avg_us", uint64(snap.Mean().Microseconds()))
		out = appendStat(out, name+"_p50_us", uint64(snap.Quantile(0.50).Microseconds()))
		out = appendStat(out, name+"_p95_us", uint64(snap.Quantile(0.95).Microseconds()))
		out = appendStat(out, name+"_p99_us", uint64(snap.Quantile(0.99).Microseconds()))
	}
	out = append(out, replyEnd...)
	cs.out = out
	_, err := cs.w.Write(out)
	return err
}

// handleStatsShards renders "stats shards": per-shard occupancy, eviction
// pressure, IQ miss-table size, latency and lock-hold tails, and — with
// persistence — journal generation/size and compaction counts.
func (s *Server) handleStatsShards(cs *connState) error {
	out := cs.out[:0]
	for i, sh := range s.shards {
		sh.mu.Lock()
		items := sh.store.len()
		bytes := sh.store.used()
		evictions := sh.store.evictions()
		rejected := sh.store.rejected()
		reclaimed := sh.store.reclaimed()
		missTable := len(sh.missedAt)
		as, packed := sh.store.lay.stats()
		sh.mu.Unlock()
		lat := sh.latHist.Snapshot()
		lock := sh.lockHist.Snapshot()
		prefix := "shard" + strconv.Itoa(i) + "_"
		out = appendStatInt(out, prefix+"items", int64(items))
		out = appendStatInt(out, prefix+"bytes", bytes)
		out = appendStat(out, prefix+"evictions", evictions)
		out = appendStat(out, prefix+"rejected_sets", rejected)
		out = appendStat(out, prefix+"expired_reclaimed", reclaimed)
		out = appendStatInt(out, prefix+"iq_miss_table", int64(missTable))
		out = appendStat(out, prefix+"ops", lat.Count)
		out = appendStat(out, prefix+"p99_us", uint64(lat.Quantile(0.99).Microseconds()))
		out = appendStat(out, prefix+"lock_holds", lock.Count)
		out = appendStat(out, prefix+"lock_p99_us", uint64(lock.Quantile(0.99).Microseconds()))
		if packed {
			out = appendStatInt(out, prefix+"arena_live_bytes", as.LiveBytes)
			out = appendStatInt(out, prefix+"arena_dead_bytes", as.DeadBytes)
			out = appendStatInt(out, prefix+"arena_held_bytes", as.HeldBytes)
			out = appendStatInt(out, prefix+"arena_segments", int64(as.Segments))
			out = appendStat(out, prefix+"arena_compactions", as.Compactions)
			out = appendStat(out, prefix+"arena_relocated_bytes", as.RelocatedBytes)
		}
		if sh.mgr != nil {
			info := sh.mgr.Info()
			out = appendStat(out, prefix+"journal_gen", info.Generation)
			out = appendStatInt(out, prefix+"journal_bytes", info.AOFSize)
			out = appendStat(out, prefix+"compactions", info.Compactions)
			degraded := uint64(0)
			if sh.degraded.Load() {
				degraded = 1
			}
			out = appendStat(out, prefix+"persist_degraded", degraded)
		}
	}
	out = append(out, replyEnd...)
	cs.out = out
	_, err := cs.w.Write(out)
	return err
}

// handleSlowlog serves "slowlog get|reset|threshold <ms>". Entries render
// newest first as
//
//	SLOWLOG <id> <unix> <duration_us> <verb> <key>\r\n
//
// with "-" standing in for an empty key, then END. The threshold changes
// take effect immediately, no restart needed.
func (s *Server) handleSlowlog(args [][]byte, cs *connState) error {
	w := cs.w
	if len(args) == 0 {
		_, err := w.Write(replyBadSlowlog)
		return err
	}
	switch string(args[0]) {
	case "get":
		if len(args) != 1 {
			_, err := w.Write(replyBadSlowlog)
			return err
		}
		out := cs.out[:0]
		for _, e := range s.metrics.slowlog.Entries() {
			out = append(out, "SLOWLOG "...)
			out = strconv.AppendUint(out, e.ID, 10)
			out = append(out, ' ')
			out = strconv.AppendInt(out, e.Unix, 10)
			out = append(out, ' ')
			out = strconv.AppendInt(out, e.Dur.Microseconds(), 10)
			out = append(out, ' ')
			out = append(out, e.Verb...)
			out = append(out, ' ')
			if key := e.Key(); key == "" {
				out = append(out, '-')
			} else {
				out = append(out, key...)
			}
			out = append(out, '\r', '\n')
		}
		out = append(out, replyEnd...)
		cs.out = out
		_, err := w.Write(out)
		return err
	case "reset":
		if len(args) != 1 {
			_, err := w.Write(replyBadSlowlog)
			return err
		}
		s.metrics.slowlog.Reset()
		_, err := w.Write(replyOK)
		return err
	case "threshold":
		if len(args) != 2 {
			_, err := w.Write(replyBadSlowlog)
			return err
		}
		ms, ok := proto.ParseUint(args[1])
		if !ok {
			_, err := w.Write(replyBadSlowlog)
			return err
		}
		s.metrics.slowlog.SetThreshold(time.Duration(ms) * time.Millisecond)
		_, err := w.Write(replyOK)
		return err
	default:
		_, err := w.Write(replyBadSlowlog)
		return err
	}
}

// buildRegistry wires every metric family into the Prometheus registry.
// Families are collected through callbacks at scrape time, so gauges are
// always live; per-shard collectors lock one shard at a time, exactly as
// the stats command does. Replication families are registered
// unconditionally (with no samples when the role doesn't apply), so the
// family set a scraper sees is stable across roles and restarts.
func (s *Server) buildRegistry() {
	r := &s.metrics.registry
	labels := make([]string, len(s.shards))
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}

	r.Register("camp_uptime_seconds", "Seconds since the server started.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) { tw.Sample("", time.Since(s.started).Seconds()) })
	r.Register("camp_limit_bytes", "Configured cache capacity in bytes.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.cfg.MemoryBytes)) })

	r.Register("camp_cmd_total", "Commands processed, by verb.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) {
			for _, c := range s.counters.lines() {
				if verb, ok := cutPrefix(c.key, "cmd_"); ok {
					tw.Sample("", float64(c.val), "verb", verb)
				}
			}
		})
	r.Register("camp_get_hits_total", "Per-key get hits.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.getHits.Load())) })
	r.Register("camp_get_misses_total", "Per-key get misses.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.getMisses.Load())) })

	// Robustness families, registered unconditionally (PR-6 convention: the
	// family set is identical across roles and configurations).
	r.Register("camp_conn_panics_total", "Handler panics recovered; each closed its connection, the server survived.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.connPanics.Load())) })
	r.Register("camp_accept_rejected_maxconns_total", "Connections refused at the -max-conns accept limit.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.acceptRejected.Load())) })
	r.Register("camp_persist_errors_total", "Journal and snapshot failures across all shards.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.persistErrors.Load())) })
	r.Register("camp_shard_persist_degraded", "Whether the shard serves cache-only after a persistence failure (1) or journals normally (0).", metrics.TypeGauge,
		func(tw *metrics.TextWriter) {
			for i, sh := range s.shards {
				v := 0.0
				if sh.degraded.Load() {
					v = 1
				}
				tw.Sample("", v, "shard", labels[i])
			}
		})

	r.Register("camp_connections_current", "Open client connections.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.currConns.Load())) })
	r.Register("camp_connections_total", "Connections accepted since start.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.totalConns.Load())) })
	r.Register("camp_bytes_read_total", "Bytes read from client sockets.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.bytesRead.Load())) })
	r.Register("camp_bytes_written_total", "Bytes written to client sockets.", metrics.TypeCounter,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.counters.bytesWritten.Load())) })

	r.Register("camp_latency_seconds", "Command wall time, by verb.", metrics.TypeHistogram,
		func(tw *metrics.TextWriter) {
			for v := verbID(0); v < numVerbs; v++ {
				tw.Histogram(s.metrics.verbs[v].Snapshot(), "verb", verbNames[v])
			}
		})
	r.Register("camp_shard_latency_seconds", "Command wall time, by shard.", metrics.TypeHistogram,
		func(tw *metrics.TextWriter) {
			for i := range s.shards {
				tw.Histogram(s.shards[i].latHist.Snapshot(), "shard", labels[i])
			}
		})
	r.Register("camp_shard_lock_hold_seconds", "Shard mutex hold time on the mutation path.", metrics.TypeHistogram,
		func(tw *metrics.TextWriter) {
			for i := range s.shards {
				tw.Histogram(s.shards[i].lockHist.Snapshot(), "shard", labels[i])
			}
		})

	shardGauge := func(name, help, typ string, get func(sh *shard) float64) {
		r.Register(name, help, typ, func(tw *metrics.TextWriter) {
			for i, sh := range s.shards {
				sh.mu.Lock()
				v := get(sh)
				sh.mu.Unlock()
				tw.Sample("", v, "shard", labels[i])
			}
		})
	}
	shardGauge("camp_shard_items", "Live items per shard.", metrics.TypeGauge,
		func(sh *shard) float64 { return float64(sh.store.len()) })
	shardGauge("camp_shard_bytes", "Bytes charged per shard.", metrics.TypeGauge,
		func(sh *shard) float64 { return float64(sh.store.used()) })
	shardGauge("camp_shard_evictions_total", "Policy evictions per shard.", metrics.TypeCounter,
		func(sh *shard) float64 { return float64(sh.store.evictions()) })
	shardGauge("camp_shard_rejected_sets_total", "Sets refused by the eviction policy per shard.", metrics.TypeCounter,
		func(sh *shard) float64 { return float64(sh.store.rejected()) })
	shardGauge("camp_shard_expired_reclaimed_total", "Expired items reclaimed lazily per shard.", metrics.TypeCounter,
		func(sh *shard) float64 { return float64(sh.store.reclaimed()) })
	shardGauge("camp_shard_iq_miss_table", "Pending IQ miss-table entries per shard.", metrics.TypeGauge,
		func(sh *shard) float64 { return float64(len(sh.missedAt)) })

	// Packed-arena families, registered unconditionally (the stable-family-set
	// convention); they carry samples only in arena mode.
	arenaGauge := func(name, help, typ string, get func(as alloc.ArenaStats) float64) {
		r.Register(name, help, typ, func(tw *metrics.TextWriter) {
			for i, sh := range s.shards {
				sh.mu.Lock()
				as, packed := sh.store.lay.stats()
				sh.mu.Unlock()
				if packed {
					tw.Sample("", get(as), "shard", labels[i])
				}
			}
		})
	}
	arenaGauge("camp_shard_arena_live_bytes", "Live packed-record bytes per shard arena.", metrics.TypeGauge,
		func(as alloc.ArenaStats) float64 { return float64(as.LiveBytes) })
	arenaGauge("camp_shard_arena_dead_bytes", "Dead (overwritten or deleted) record bytes awaiting compaction per shard arena.", metrics.TypeGauge,
		func(as alloc.ArenaStats) float64 { return float64(as.DeadBytes) })
	arenaGauge("camp_shard_arena_held_bytes", "Segment bytes held from the budget per shard arena.", metrics.TypeGauge,
		func(as alloc.ArenaStats) float64 { return float64(as.HeldBytes) })
	arenaGauge("camp_shard_arena_segments", "Segments held per shard arena.", metrics.TypeGauge,
		func(as alloc.ArenaStats) float64 { return float64(as.Segments) })
	arenaGauge("camp_shard_arena_compactions_total", "Segments fully compacted and recycled per shard arena.", metrics.TypeCounter,
		func(as alloc.ArenaStats) float64 { return float64(as.Compactions) })
	arenaGauge("camp_shard_arena_relocated_bytes_total", "Live record bytes relocated by the compactor per shard arena.", metrics.TypeCounter,
		func(as alloc.ArenaStats) float64 { return float64(as.RelocatedBytes) })

	journalGauge := func(name, help, typ string, get func(info persist.Info) float64) {
		r.Register(name, help, typ, func(tw *metrics.TextWriter) {
			for i, sh := range s.shards {
				if sh.mgr == nil {
					continue
				}
				tw.Sample("", get(sh.mgr.Info()), "shard", labels[i])
			}
		})
	}
	journalGauge("camp_shard_journal_generation", "Current journal generation per shard.", metrics.TypeGauge,
		func(info persist.Info) float64 { return float64(info.Generation) })
	journalGauge("camp_shard_journal_bytes", "Journal segment size per shard.", metrics.TypeGauge,
		func(info persist.Info) float64 { return float64(info.AOFSize) })
	journalGauge("camp_shard_compactions_total", "Snapshot-compaction cycles per shard.", metrics.TypeCounter,
		func(info persist.Info) float64 { return float64(info.Compactions) })

	// Per-tenant families, labeled by tenant name. Residency figures sum
	// across shards (one shard lock at a time); the read counters come from
	// the registry's lifetime atomics. The default tenant is always present,
	// so single-tenant deployments scrape a stable one-series family.
	tenantUsage := func(name, help, typ string, get func(tt tenantTotals, tname string) float64) {
		r.Register(name, help, typ, func(tw *metrics.TextWriter) {
			tt := s.collectTenantTotals()
			for _, t := range s.tenants.list() {
				tw.Sample("", get(tt, t.name), "tenant", t.name)
			}
		})
	}
	tenantUsage("camp_tenant_bytes", "Bytes resident per tenant.", metrics.TypeGauge,
		func(tt tenantTotals, tname string) float64 { return float64(tt.used[tname]) })
	tenantUsage("camp_tenant_items", "Items resident per tenant.", metrics.TypeGauge,
		func(tt tenantTotals, tname string) float64 { return float64(tt.items[tname]) })
	tenantUsage("camp_tenant_evictions_total", "Policy evictions per tenant since its last flush.", metrics.TypeCounter,
		func(tt tenantTotals, tname string) float64 { return float64(tt.evictions[tname]) })
	tenantCounter := func(name, help, typ string, get func(t *tenant) float64) {
		r.Register(name, help, typ, func(tw *metrics.TextWriter) {
			for _, t := range s.tenants.list() {
				tw.Sample("", get(t), "tenant", t.name)
			}
		})
	}
	tenantCounter("camp_tenant_reserved_bytes", "Configured reserved quota per tenant.", metrics.TypeGauge,
		func(t *tenant) float64 { return float64(t.reserve.Load()) })
	tenantCounter("camp_tenant_hits_total", "Get hits per tenant.", metrics.TypeCounter,
		func(t *tenant) float64 { return float64(t.hits.Load()) })
	tenantCounter("camp_tenant_misses_total", "Get misses per tenant.", metrics.TypeCounter,
		func(t *tenant) float64 { return float64(t.misses.Load()) })
	tenantCounter("camp_tenant_cost_saved_total", "Summed cost of get hits per tenant (the CAMP objective).", metrics.TypeCounter,
		func(t *tenant) float64 { return float64(t.costSaved.Load()) })
	tenantCounter("camp_tenant_quota_shed_total", "Requests answered 'tenant over quota' per tenant.", metrics.TypeCounter,
		func(t *tenant) float64 { return float64(t.quotaShed.Load()) })

	r.Register("camp_slowlog_entries", "Slow commands currently retained.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) { tw.Sample("", float64(s.metrics.slowlog.Len())) })
	r.Register("camp_slowlog_threshold_seconds", "Current slowlog threshold.", metrics.TypeGauge,
		func(tw *metrics.TextWriter) { tw.Sample("", s.metrics.slowlog.Threshold().Seconds()) })

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

	// Follower-side replication: one sample per shard stream when this
	// server is (or was) a replica.
	replGauge := func(name, help, typ string, get func(sr *shardReplica) float64) {
		r.Register(name, help, typ, func(tw *metrics.TextWriter) {
			if s.repl == nil {
				return
			}
			for _, sr := range s.repl.reps {
				tw.Sample("", get(sr), "shard", labels[sr.idx])
			}
		})
	}
	replGauge("camp_repl_connected", "Whether the shard's replication stream is live.", metrics.TypeGauge,
		func(sr *shardReplica) float64 {
			sr.mu.Lock()
			defer sr.mu.Unlock()
			if sr.connected {
				return 1
			}
			return 0
		})
	replGauge("camp_repl_applied_ops_total", "Replicated ops applied per shard.", metrics.TypeCounter,
		func(sr *shardReplica) float64 {
			sr.mu.Lock()
			defer sr.mu.Unlock()
			return float64(sr.applied)
		})
	replGauge("camp_repl_lag_seconds", "Seconds since the shard's stream last delivered a frame or ping.", metrics.TypeGauge,
		func(sr *shardReplica) float64 {
			last := sr.lastFrame.Load()
			if last == 0 {
				return -1 // never connected
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
	replGauge("camp_repl_durable_position", "Whether a restart would resume with CONTINUE (1) or full resync (0).", metrics.TypeGauge,
		func(sr *shardReplica) float64 {
			sr.sh.mu.Lock()
			defer sr.sh.mu.Unlock()
			if sr.sh.replPos.RunID != 0 {
				return 1
			}
			return 0
		})
}

// cutPrefix is strings.CutPrefix, kept local to avoid importing strings
// into this otherwise byte-oriented package for one call.
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}
