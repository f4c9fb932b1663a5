// Server-side metrics: per-verb and per-shard latency histograms and the
// slowlog (stats.go renders them to the wire and to /metrics).
//
// Everything on the request path is allocation-free: dispatch (verbs.go)
// resolves the verb from the command table, copies the key into pooled
// per-connection scratch before the payload read invalidates the tokens, and
// records wall time with two atomic adds per histogram. The scrape paths —
// "stats latency", "stats shards", "slowlog get" and /metrics — copy the
// atomic state out and may allocate freely.
package kvserver

import (
	"strconv"
	"time"

	"camp/internal/metrics"
	"camp/internal/proto"
)

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

var replyBadSlowlog = []byte("CLIENT_ERROR bad slowlog command (want get, reset or threshold <ms>)\r\n")

// appendLatency renders "stats latency": per-verb observation counts and
// log-bucket quantiles in microseconds. Every verb is always present, so the
// line set is stable for parsers.
func (s *Server) appendLatency(out []byte) []byte {
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
	return out
}

// handleSlowlog serves "slowlog get|reset|threshold <ms>". Entries render
// newest first as
//
//	SLOWLOG <id> <unix> <duration_us> <verb> <key>\r\n
//
// with "-" standing in for an empty key, then END. The threshold changes
// take effect immediately, no restart needed.
func (s *Server) handleSlowlog(args [][]byte, cs *connState) error {
	if len(args) == 0 {
		return cs.send(replyBadSlowlog)
	}
	switch string(args[0]) {
	case "get":
		if len(args) != 1 {
			return cs.send(replyBadSlowlog)
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
		return cs.send(out)
	case "reset":
		if len(args) != 1 {
			return cs.send(replyBadSlowlog)
		}
		s.metrics.slowlog.Reset()
		return cs.send(replyOK)
	case "threshold":
		if len(args) != 2 {
			return cs.send(replyBadSlowlog)
		}
		ms, ok := proto.ParseUint(args[1])
		if !ok {
			return cs.send(replyBadSlowlog)
		}
		s.metrics.slowlog.SetThreshold(time.Duration(ms) * time.Millisecond)
		return cs.send(replyOK)
	default:
		return cs.send(replyBadSlowlog)
	}
}
