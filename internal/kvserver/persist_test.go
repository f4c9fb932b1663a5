package kvserver

import (
	"fmt"
	"math/rand"
	"testing"

	"camp/internal/itab"
	"camp/internal/kvclient"
	"camp/internal/persist"
	"camp/internal/trace"
)

// expectedItem mirrors what recovery must reproduce for an acknowledged
// mutation: value, flags, expiry and the learned cost.
type expectedItem struct {
	value   string
	flags   uint32
	expires int64
	cost    int64
}

// captureState snapshots a server's live items, shard by shard.
func captureState(s *Server) map[string]expectedItem {
	out := make(map[string]expectedItem)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for it := range sh.store.items.All() {
			out[it.Key()] = expectedItem{
				value:   string(sh.store.lay.value(it)),
				flags:   it.flags,
				expires: it.expires,
				cost:    it.node.Cost,
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// totalCompactions sums completed compactions across shards.
func totalCompactions(s *Server) uint64 {
	var n uint64
	for _, sh := range s.shards {
		if sh.mgr != nil {
			n += sh.mgr.Info().Compactions
		}
	}
	return n
}

// TestCrashRecoveryRandomizedMix is the acceptance test: a randomized mix of
// sets (with explicit costs), deletes and touches against an AOF-enabled
// server, a hard stop with no graceful shutdown, and a recovery that must
// reproduce every acknowledged mutation — value, flags, expiry and cost.
func TestCrashRecoveryRandomizedMix(t *testing.T) {
	for _, tc := range []struct {
		name     string
		aofLimit int64
	}{
		{name: "aof-only", aofLimit: 0},
		// A tiny limit forces several snapshot-then-truncate compactions
		// mid-run, so recovery exercises snapshot + journal tail.
		{name: "with-compactions", aofLimit: 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pcfg := func() *PersistConfig {
				return &PersistConfig{
					Dir:      dir,
					Fsync:    persist.FsyncAlways,
					AOFLimit: tc.aofLimit,
					Logf:     t.Logf,
				}
			}
			cfg := Config{
				MemoryBytes: 8 << 20, // ample: every acknowledged set stays resident
				Policy:      "camp",
				DisableIQ:   true,
				Persist:     pcfg(),
			}
			s1 := startServer(t, cfg)
			c := dial(t, s1)

			rng := rand.New(rand.NewSource(42))
			keys := make([]string, 200)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%03d", i)
			}
			for i := 0; i < 2000; i++ {
				key := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(10); {
				case op < 6: // set with an explicit cost
					val := []byte(fmt.Sprintf("val-%d-%d", i, rng.Int63()))
					ttl := int64(0)
					if rng.Intn(3) == 0 {
						ttl = int64(3600 + rng.Intn(3600))
					}
					if err := c.Set(key, val, uint32(rng.Intn(1<<16)), ttl, int64(1+rng.Intn(10000))); err != nil {
						t.Fatal(err)
					}
				case op < 8: // delete
					if _, err := c.Delete(key); err != nil {
						t.Fatal(err)
					}
				default: // touch
					if _, err := c.Touch(key, int64(1800+rng.Intn(1800))); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := captureState(s1)
			if len(want) == 0 {
				t.Fatal("test produced no resident items")
			}
			s1.Kill() // crash: no persistence flush, no final snapshot

			cfg.Persist = pcfg()
			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			got := captureState(s2)
			if len(got) != len(want) {
				t.Fatalf("recovered %d items, want %d", len(got), len(want))
			}
			for key, w := range want {
				g, ok := got[key]
				if !ok {
					t.Fatalf("key %q lost in recovery", key)
				}
				if g != w {
					t.Fatalf("key %q: recovered %+v, want %+v", key, g, w)
				}
			}
			if tc.aofLimit > 0 && s2.recovered.SnapshotOps == 0 {
				t.Fatal("compaction run recovered nothing from a snapshot")
			}
		})
	}
}

// TestWarmHitRateAfterRecovery replays an internal/trace workload against a
// CAMP server small enough to evict, hard-stops it, and checks the recovered
// server reproduces the pre-restart warm hit rate exactly: journal replay
// rebuilds CAMP's queues and heap in the original order with the original
// costs, and CAMP is deterministic from there.
func TestWarmHitRateAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	pcfg := func() *PersistConfig {
		return &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf}
	}
	cfg := Config{
		MemoryBytes: 64 << 10, // forces eviction: the key population is ~3x larger
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     pcfg(),
	}
	s1 := startServer(t, cfg)
	c := dial(t, s1)

	genCfg := trace.Config{
		Keys:     1000,
		Requests: 3000,
		Seed:     7,
		Size:     trace.SizeUniform(60, 140),
		Cost:     trace.CostChoice(1, 100, 10000),
	}
	// Warm-up phase: sets only, so the journal captures the exact mutation
	// order the policy saw.
	g := trace.NewGenerator(genCfg)
	for {
		req, ok := g.Next()
		if !ok {
			break
		}
		if err := c.Set(req.Key, make([]byte, req.Size), 0, 0, req.Cost); err != nil {
			t.Fatal(err)
		}
	}

	measure := func(c *kvclient.Client) int {
		hits := 0
		g := trace.NewGenerator(genCfg) // same seed: the identical reference stream
		for {
			req, ok := g.Next()
			if !ok {
				break
			}
			if _, ok, err := c.Get(req.Key); err != nil {
				t.Fatal(err)
			} else if ok {
				hits++
			}
		}
		return hits
	}
	hitsBefore := measure(c)
	if hitsBefore == 0 || hitsBefore == int(genCfg.Requests) {
		t.Fatalf("degenerate warm run: %d/%d hits", hitsBefore, genCfg.Requests)
	}
	s1.Kill()

	cfg.Persist = pcfg()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.recovered.ReplayedOps == 0 {
		t.Fatal("recovery replayed no ops")
	}
	hitsAfter := measure(dial(t, s2))
	if hitsAfter != hitsBefore {
		t.Fatalf("warm hit rate changed across recovery: %d hits before, %d after (of %d gets)",
			hitsBefore, hitsAfter, genCfg.Requests)
	}
}

// TestPersistStats forces a compaction and checks the persistence and
// admission stats lines.
func TestPersistStats(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		MemoryBytes: 1 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: dir, Fsync: persist.FsyncNo, Logf: t.Logf},
	}
	s := startServer(t, cfg)
	c := dial(t, s)
	if err := c.Set("a", []byte("v"), 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	s.Snapshot()
	if totalCompactions(s) == 0 {
		t.Fatal("Snapshot compacted no shard")
	}
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rejected_sets", "persist_gen", "aof_bytes", "persist_compactions"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, stats)
		}
	}
}

// TestRejectedSetsStat proves admission pressure is visible to operators:
// an over-capacity value is refused and counted.
func TestRejectedSetsStat(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 4 << 10, Policy: "camp", DisableIQ: true})
	c := dial(t, s)
	if err := c.Set("huge", make([]byte, 6<<10), 0, 0, 1); err == nil {
		t.Fatal("an over-capacity set must be refused")
	}
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats["rejected_sets"] != "1" {
		t.Fatalf("rejected_sets = %q, want 1", stats["rejected_sets"])
	}
}

func TestPersistConfigValidation(t *testing.T) {
	if _, err := New(Config{MemoryBytes: 1 << 20, Persist: &PersistConfig{}}); err == nil {
		t.Fatal("Persist without Dir must error")
	}
	if _, err := New(Config{MemoryBytes: 1 << 20, Persist: &PersistConfig{Dir: t.TempDir(), Fsync: "bogus"}}); err == nil {
		t.Fatal("unknown fsync policy must error")
	}
}

// TestArithPreservesExpiry pins the memcached semantics: incr/decr rewrite
// the payload but keep the item's flags and expiration, in memory and in
// the journal.
func TestArithPreservesExpiry(t *testing.T) {
	dir := t.TempDir()
	pcfg := func() *PersistConfig {
		return &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf}
	}
	cfg := Config{MemoryBytes: 1 << 20, Policy: "camp", DisableIQ: true, Persist: pcfg()}
	s1 := startServer(t, cfg)
	c := dial(t, s1)
	if err := c.Set("counter", []byte("41"), 9, 3600, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Incr("counter", 1); err != nil || !ok || v != 42 {
		t.Fatalf("incr: %d, %v, %v", v, ok, err)
	}
	wantExpiry := func(s *Server, when string) {
		t.Helper()
		sh := s.shardFor("counter")
		sh.mu.Lock()
		it := itab.Lookup(sh.store.items, "counter")
		sh.mu.Unlock()
		if it == nil {
			t.Fatalf("%s: counter missing", when)
		}
		if it.expires == 0 {
			t.Fatalf("%s: incr cleared the expiration", when)
		}
		if it.flags != 9 {
			t.Fatalf("%s: incr changed flags to %d", when, it.flags)
		}
	}
	wantExpiry(s1, "live")
	s1.Kill()

	cfg.Persist = pcfg()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantExpiry(s2, "recovered")
}

// TestRejectedReSetJournalsDelete pins journal fidelity on admission
// failure: a rejected re-set drops the live entry (the store tore it down to
// make room), so the journal must record that removal — otherwise recovery
// (and replicas) would resurrect the old value the client saw disappear.
func TestRejectedReSetJournalsDelete(t *testing.T) {
	dir := t.TempDir()
	pcfg := func() *PersistConfig {
		return &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf}
	}
	cfg := Config{MemoryBytes: 8 << 10, Policy: "camp", DisableIQ: true, Persist: pcfg()}
	s1 := startServer(t, cfg)
	c := dial(t, s1)
	if err := c.Set("victim", []byte("small"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The oversized rewrite is refused — and the old version is gone.
	if err := c.Set("victim", make([]byte, 12<<10), 0, 0, 1); err == nil {
		t.Fatal("an over-capacity re-set must be refused")
	}
	if _, ok, err := c.Get("victim"); err != nil || ok {
		t.Fatalf("victim still live after rejected re-set: %v, %v", ok, err)
	}
	s1.Kill()

	cfg.Persist = pcfg()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := captureState(s2); len(got) != 0 {
		t.Fatalf("recovery resurrected %d items after a rejected re-set: %v", len(got), got)
	}
}

// TestFlushAllPersists checks flush_all durably empties the store.
func TestFlushAllPersists(t *testing.T) {
	dir := t.TempDir()
	pcfg := func() *PersistConfig {
		return &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf}
	}
	cfg := Config{MemoryBytes: 1 << 20, Policy: "camp", DisableIQ: true, Persist: pcfg()}
	s1 := startServer(t, cfg)
	c := dial(t, s1)
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("survivor", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s1.Kill()

	cfg.Persist = pcfg()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := captureState(s2)
	if len(got) != 1 {
		t.Fatalf("recovered %d items after flush_all, want 1: %v", len(got), got)
	}
	if _, ok := got["survivor"]; !ok {
		t.Fatal("post-flush set lost in recovery")
	}
}
