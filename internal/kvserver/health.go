// Persistence health: the background prober that walks degraded shards back
// to healthy.
//
// A shard degrades (shard.enterDegraded) when a journal append or a snapshot
// cycle fails: it detaches the broken journal handle and keeps serving every
// read and write from memory, with positions frozen and persist_degraded
// raised in stats and metrics. The prober is the only way back. On a jittered
// exponential backoff it re-tests each degraded shard's data directory with a
// real write+fsync+remove through the same (possibly fault-injected)
// filesystem the journal uses; only when the probe passes does it attempt the
// healing compaction — a clean snapshot of the in-memory state onto a fresh
// journal segment, which re-establishes the snapshot+tail recovery invariant
// and clears the degraded flag.
package kvserver

import (
	"math/rand"
	"time"
)

// Default probe backoff bounds (PersistConfig.ProbeMin/ProbeMax override).
const (
	defaultProbeMin = 500 * time.Millisecond
	defaultProbeMax = 10 * time.Second
)

// jitter spreads d uniformly over [d/2, d]: full fixed intervals synchronize
// retries across shards — and across servers restarted by the same incident —
// which is exactly the thundering herd a backoff exists to avoid.
func jitter(rnd *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rnd.Int63n(int64(d)/2+1))
}

// wakeProber nudges the prober out of its idle wait when a shard degrades.
// Non-blocking: a pending wakeup is as good as two.
func (s *Server) wakeProber() {
	if s.probeC == nil {
		return
	}
	select {
	case s.probeC <- struct{}{}:
	default:
	}
}

// anyDegraded reports whether at least one shard is serving cache-only.
func (s *Server) anyDegraded() bool {
	for _, sh := range s.shards {
		if sh.degraded.Load() {
			return true
		}
	}
	return false
}

// proberLoop runs for the server's whole life when persistence is on. It
// sleeps until a shard degrades, then probes the degraded set on a jittered
// exponential backoff: every heal resets the backoff (a recovering disk
// deserves fast follow-ups for the remaining shards), every round that
// leaves some shard degraded widens it up to the max.
func (s *Server) proberLoop(min, max time.Duration) {
	defer s.wg.Done()
	if min <= 0 {
		min = defaultProbeMin
	}
	if max < min {
		max = defaultProbeMax
		if max < min {
			max = min
		}
	}
	rnd := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := min
	for {
		if !s.anyDegraded() {
			select {
			case <-s.stopBg:
				return
			case <-s.probeC:
			}
			backoff = min
		}
		t := time.NewTimer(jitter(rnd, backoff))
		select {
		case <-s.stopBg:
			t.Stop()
			return
		case <-t.C:
		}
		if healed := s.probeDegraded(); healed > 0 {
			backoff = min
		} else if backoff *= 2; backoff > max {
			backoff = max
		}
	}
}

// probeDegraded re-tests every degraded shard and heals the ones whose disk
// answers: a passing probe is followed by a clean compaction snapshot, which
// reattaches the journal on a fresh segment and clears the degraded flag
// (shard.runCompaction with heal=true). Returns how many shards healed.
func (s *Server) probeDegraded() (healed int) {
	for i, sh := range s.shards {
		if !sh.degraded.Load() || sh.mgr == nil {
			continue
		}
		if err := sh.mgr.Probe(); err != nil {
			s.logf("kvserver: shard %d probe: %v", i, err)
			continue
		}
		if err := sh.runCompaction(true); err != nil {
			s.logf("kvserver: shard %d heal compaction: %v", i, err)
			continue
		}
		s.logf("kvserver: shard %d healed: journaling resumed on a fresh snapshot", i)
		healed++
	}
	return healed
}
