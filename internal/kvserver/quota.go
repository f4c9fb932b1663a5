package kvserver

import (
	"sync/atomic"
	"time"
)

// Per-tenant request quotas (Config.TenantQuotas / campsrv -tenant-quota):
// the shed-on-exceed control a multi-tenant cache needs so one tenant's
// request storm cannot monopolize the server the way reserves already stop
// it monopolizing memory. Two independent limits:
//
//   - ops/sec, enforced with GCRA (the virtual-scheduling form of a token
//     bucket): the entire rate state is one int64 — the theoretical arrival
//     time of the next conforming request — advanced with a CAS loop, so the
//     hot path takes no lock and allocates nothing. A full second of burst
//     is allowed, matching a 1-second token bucket of depth = rate.
//   - bytes in flight, an atomic gauge of mutation payload bytes currently
//     being processed on behalf of the tenant across all connections,
//     acquired before the shard op and released after it.
//
// Over-quota requests are shed with "SERVER_ERROR tenant over quota" after
// the request (including any data block) has been fully consumed, so the
// connection stream stays in sync and the client can retry. Quotas are
// config-only — never journaled or replicated — because they describe the
// deployment, not the data.

// tenantQuota is one tenant's immutable limits plus the mutable rate/gauge
// state. A nil *tenantQuota means unlimited.
type tenantQuota struct {
	// tat is the GCRA theoretical arrival time, ns on the time.Now clock.
	tat atomic.Int64
	// interval is ns between conforming ops (1e9 / ops_per_sec); 0 disables
	// the rate limit.
	interval int64
	// burst is the tolerated scheduling slack in ns: one full second, i.e. a
	// burst of ops_per_sec back-to-back ops from idle.
	burst int64

	// inflight/maxInflight bound concurrently processed mutation payload
	// bytes; maxInflight 0 disables the limit.
	inflight    atomic.Int64
	maxInflight int64

	// shedReads extends the ops/sec limit to the read path; by default only
	// mutations are shed so an over-quota tenant can still drain its cache.
	shedReads bool
}

func newTenantQuota(q TenantQuota) *tenantQuota {
	tq := &tenantQuota{maxInflight: q.MaxBytesInFlight, shedReads: q.ShedReads}
	if q.OpsPerSec > 0 {
		tq.interval = int64(time.Second) / q.OpsPerSec
		tq.burst = int64(time.Second)
	}
	return tq
}

// allowOp admits one request at time now (ns) if the tenant is within its
// ops/sec limit, consuming one slot. Lock-free: a single CAS on the
// theoretical arrival time; contention retries are bounded by the number of
// concurrently admitting connections.
func (tq *tenantQuota) allowOp(now int64) bool {
	if tq == nil || tq.interval == 0 {
		return true
	}
	for {
		tat := tq.tat.Load()
		next := tat
		if next < now {
			next = now
		}
		next += tq.interval
		if next-now > tq.burst {
			return false
		}
		if tq.tat.CompareAndSwap(tat, next) {
			return true
		}
	}
}

// acquireBytes reserves n payload bytes against the in-flight limit; the
// caller must releaseBytes(n) after the shard op when it returns true.
func (tq *tenantQuota) acquireBytes(n int64) bool {
	if tq == nil || tq.maxInflight == 0 || n <= 0 {
		return true
	}
	for {
		cur := tq.inflight.Load()
		if cur+n > tq.maxInflight {
			return false
		}
		if tq.inflight.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

func (tq *tenantQuota) releaseBytes(n int64) {
	if tq == nil || tq.maxInflight == 0 || n <= 0 {
		return
	}
	tq.inflight.Add(-n)
}

// shedOp is the mutation-path quota gate: it admits the request or counts
// the shed and writes the over-quota error (suppressed under noreply, like
// every other error on a noreply mutation). nbytes is the payload size a
// store op carries; 0 for payload-less mutations.
func (s *Server) shedOp(cs *connState, t *tenant, now, nbytes int64, noreply bool) (shed bool, err error) {
	tq := t.quota
	if tq == nil {
		return false, nil
	}
	if tq.allowOp(now) && tq.acquireBytes(nbytes) {
		return false, nil
	}
	t.quotaShed.Add(1)
	if noreply {
		return true, nil
	}
	_, err = cs.w.Write(replyOverQuota)
	return true, err
}
