package kvserver

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"camp/internal/cache"
	"camp/internal/kvclient"
	"camp/internal/persist"
)

func TestShardIndexStableAndSpread(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("key-%d", i)
		idx := shardIndex(key, 8)
		if idx2 := shardIndex(key, 8); idx2 != idx {
			t.Fatalf("shardIndex not deterministic for %q: %d vs %d", key, idx, idx2)
		}
		counts[idx]++
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no keys: %v", i, counts)
		}
	}
	if shardIndex("anything", 1) != 0 {
		t.Fatal("single shard must always route to 0")
	}
}

// TestShardedRoundTrip runs the basic command set against a multi-shard
// server so every handler exercises routing.
func TestShardedRoundTrip(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 4 << 20, Policy: "camp", Shards: 4})
	c := dial(t, s)
	for i := 0; i < 200; i++ {
		if err := c.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)), uint32(i), 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Every shard should own part of the keyspace.
	for i, sh := range s.shards {
		sh.mu.Lock()
		n := sh.store.items.Len()
		sh.mu.Unlock()
		if n == 0 {
			t.Fatalf("shard %d is empty after 200 sets", i)
		}
	}
	got, err := c.MultiGet("k000", "k050", "k100", "k150", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["k050"]) != "v050" {
		t.Fatalf("MultiGet across shards = %v", got)
	}
	if ok, err := c.Delete("k100"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, ok, _ := c.Get("k100"); ok {
		t.Fatal("deleted key still readable")
	}
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats["shards"] != "4" {
		t.Fatalf("shards stat = %q, want 4", stats["shards"])
	}
	if stats["curr_items"] != "199" {
		t.Fatalf("curr_items = %q, want 199", stats["curr_items"])
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	stats, _ = c.Stats("stats")
	if stats["curr_items"] != "0" {
		t.Fatalf("curr_items after flush_all = %q", stats["curr_items"])
	}
}

// TestShardedCrashRecovery is the sharded variant of the acceptance test:
// a randomized mutation mix against a 4-shard AOF-enabled server with tiny
// per-shard journals (forcing off-lock compactions mid-run), a hard stop,
// and a recovery that must reproduce every acknowledged mutation exactly.
func TestShardedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	pcfg := func() *PersistConfig {
		return &PersistConfig{
			Dir:      dir,
			Fsync:    persist.FsyncAlways,
			AOFLimit: 2 << 10,
			Logf:     t.Logf,
		}
	}
	cfg := Config{
		MemoryBytes: 16 << 20,
		Shards:      4,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     pcfg(),
	}
	s1 := startServer(t, cfg)
	c := dial(t, s1)
	rng := rand.New(rand.NewSource(99))
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	for i := 0; i < 3000; i++ {
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(10); {
		case op < 6:
			val := []byte(fmt.Sprintf("val-%d-%d", i, rng.Int63()))
			var ttl int64
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
	want := captureState(s1)
	if len(want) == 0 {
		t.Fatal("test produced no resident items")
	}
	s1.Kill()

	// Shard dirs must exist, and nothing may sit in the data-dir root.
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardDirName(i))); err != nil {
			t.Fatalf("missing shard dir %d: %v", i, err)
		}
	}

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
	if s2.recovered.SnapshotOps == 0 {
		t.Fatal("tiny AOF limit run recovered nothing from snapshots")
	}
}

// TestReshardMigration restarts the same data dir at different shard counts
// — the default tracks GOMAXPROCS, so growing and shrinking both happen in
// the wild — and checks every item (value, flags, cost) survives each hop.
// The first layout's journals carry a flush record between two batches of
// sets, so the first migration must honour it; the last layout must itself
// survive a crash cycle.
func TestReshardMigration(t *testing.T) {
	dir := t.TempDir()
	var want map[string]expectedItem
	hops := []int{2, 5, 3, 1}
	for hop, shards := range hops {
		cfg := Config{
			MemoryBytes: 8 << 20,
			Shards:      shards,
			Policy:      "camp",
			DisableIQ:   true,
			Persist:     &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("hop %d (shards=%d): %v", hop, shards, err)
		}
		if hop == 0 {
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			c := dial(t, s)
			for i := 0; i < 30; i++ {
				if err := c.Set(fmt.Sprintf("doomed%02d", i), []byte("x"), 0, 0, 5); err != nil {
					t.Fatal(err)
				}
			}
			// flush_all compacts each shard at once, which drops the record
			// from the journal. A crash between that compaction's segment
			// switch and its snapshot commit leaves the record live: flush
			// and journal it here without the compaction.
			for _, sh := range s.shards {
				sh.mu.Lock()
				sh.store.flush()
				sh.journalLocked(persist.Op{Kind: persist.KindFlush})
				sh.mu.Unlock()
			}
			for i := 0; i < 120; i++ {
				if err := c.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)), uint32(i), 0, int64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			want = captureState(s)
		}
		got := captureState(s)
		if len(got) != 120 {
			t.Fatalf("hop %d (shards=%d): %d items, want 120 (the flushed keys must stay gone)", hop, shards, len(got))
		}
		for key, w := range want {
			if g, ok := got[key]; !ok || g != w {
				t.Fatalf("hop %d (shards=%d): key %q = %+v, want %+v (present=%v)", hop, shards, key, g, w, ok)
			}
		}
		// The old dirs must be gone: exactly `shards` shard dirs remain.
		idx, err := shardDirIndices(dir)
		if err != nil {
			t.Fatal(err)
		}
		if layoutMismatch(idx, shards) {
			t.Fatalf("hop %d: leftover shard dirs %v for %d shards", hop, idx, shards)
		}
		if hop < len(hops)-1 {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}

		// The migrated layout must itself survive a crash cycle.
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if err := dial(t, s).Set("post-migrate", []byte("p"), 0, 0, 3); err != nil {
			t.Fatal(err)
		}
		s.Kill()
		s2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		got = captureState(s2)
		if len(got) != 121 {
			t.Fatalf("post-migration crash recovery: %d items, want 121", len(got))
		}
		for key, w := range want {
			if g, ok := got[key]; !ok || g != w {
				t.Fatalf("post-migration crash recovery: key %q = %+v, want %+v (present=%v)", key, g, w, ok)
			}
		}
		if it := got["post-migrate"]; it.value != "p" || it.cost != 3 {
			t.Fatalf("post-migration crash recovery: post-migrate = %+v", it)
		}
	}
}

// TestInterruptedMigrationSwap simulates a crash between the MIGRATE marker
// and the staged-directory swap: the next open must adopt the staged
// layout, not the stale sources.
func TestInterruptedMigrationSwap(t *testing.T) {
	dir := t.TempDir()
	// Stale source: an old single-shard dir claiming key "stale".
	staleOps := []persist.Op{{Kind: persist.KindSet, Key: "stale", Value: []byte("old"), Size: 64, Cost: 1}}
	if err := os.MkdirAll(filepath.Join(dir, shardDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.WriteSnapshotFile(persist.SnapshotPath(filepath.Join(dir, shardDirName(0)), 1), emitOps(staleOps)); err != nil {
		t.Fatal(err)
	}
	// Committed staged layout for 2 shards carrying key "fresh" (routed to
	// its real shard so lookups find it after adoption).
	freshOps := []persist.Op{{Kind: persist.KindSet, Key: "fresh", Value: []byte("new"), Flags: 9, Size: 64, Cost: 7}}
	home := shardIndex("fresh", 2)
	for i := 0; i < 2; i++ {
		stage := filepath.Join(dir, shardDirName(i)+stageSuffix)
		if err := os.MkdirAll(stage, 0o755); err != nil {
			t.Fatal(err)
		}
		ops := []persist.Op{}
		if i == home {
			ops = freshOps
		}
		if _, err := persist.WriteSnapshotFile(persist.SnapshotPath(stage, 1), emitOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeMarker(dir, 2); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		MemoryBytes: 1 << 20,
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := captureState(s)
	if len(got) != 1 {
		t.Fatalf("adopted layout has %d items, want 1: %v", len(got), got)
	}
	if it, ok := got["fresh"]; !ok || it.value != "new" || it.cost != 7 {
		t.Fatalf("staged key after adoption: %+v (present=%v)", it, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, migrateMarker)); !os.IsNotExist(err) {
		t.Fatal("MIGRATE marker survived adoption")
	}
}

// TestAbortedMigrationStagingDiscarded: staged dirs with no MIGRATE marker
// are leftovers of a migration that died before its commit point — the
// sources are intact and must win.
func TestAbortedMigrationStagingDiscarded(t *testing.T) {
	dir := t.TempDir()
	srcOps := []persist.Op{{Kind: persist.KindSet, Key: "kept", Value: []byte("v"), Size: 64, Cost: 2}}
	src := filepath.Join(dir, shardDirName(0))
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.WriteSnapshotFile(persist.SnapshotPath(src, 1), emitOps(srcOps)); err != nil {
		t.Fatal(err)
	}
	stage := filepath.Join(dir, shardDirName(0)+stageSuffix)
	if err := os.MkdirAll(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.WriteSnapshotFile(persist.SnapshotPath(stage, 1), emitOps([]persist.Op{
		{Kind: persist.KindSet, Key: "half-baked", Value: []byte("x"), Size: 64, Cost: 1},
	})); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		MemoryBytes: 1 << 20,
		Shards:      1,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := captureState(s)
	if _, ok := got["kept"]; !ok || len(got) != 1 {
		t.Fatalf("source data lost to an aborted staging: %v", got)
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatal("stale staging dir survived open")
	}
}

// TestServerDataDirLock is the satellite acceptance at the server level: a
// second server on the same -data-dir refuses to start, and an orderly
// shutdown hands the directory over.
func TestServerDataDirLock(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		MemoryBytes: 1 << 20,
		Shards:      2,
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: dir, Logf: t.Logf},
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, persist.ErrLocked) {
		t.Fatalf("second server on a live data dir: got %v, want ErrLocked", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("server after clean shutdown: %v", err)
	}
	s2.Close()
}

// shardEvictionOrder reads a shard's predicted eviction sequence without
// mutating it.
func shardEvictionOrder(sh *shard) []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var keys []string
	sh.store.policy.Visit(func(n *cache.Node, _, _ uint64) bool {
		keys = append(keys, nodeKey(n))
		return true
	})
	return keys
}

// TestSnapshotOrderFidelity pins the satellite: a snapshot-based warm start
// must rebuild CAMP's queues in the original order, so the recovered
// server's eviction sequence matches the pre-snapshot one exactly. Entries
// share buckets (same cost/size repeats) so within-queue LRU order matters,
// which a random-map-order snapshot would scramble. The workload avoids
// evictions on purpose, pinning the order-only baseline; the post-churn
// case (non-uniform offsets, exact since snapshot format v2) is
// TestSnapshotOrderFidelityMidChurn.
func TestSnapshotOrderFidelity(t *testing.T) {
	dir := t.TempDir()
	pcfg := func() *PersistConfig {
		return &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf}
	}
	cfg := Config{
		MemoryBytes: 8 << 20, // ample: order is decided by priorities, not churn
		Shards:      2,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     pcfg(),
	}
	s1 := startServer(t, cfg)
	c := dial(t, s1)
	rng := rand.New(rand.NewSource(5))
	costs := []int64{1, 1, 40, 40, 900, 20000} // repeats force shared queues
	for i := 0; i < 400; i++ {
		if err := c.Set(fmt.Sprintf("key-%03d", i), make([]byte, 80), 0, 0, costs[rng.Intn(len(costs))]); err != nil {
			t.Fatal(err)
		}
	}
	// Some re-touches so recency within queues is not just insertion order.
	for i := 0; i < 150; i++ {
		if _, _, err := c.Get(fmt.Sprintf("key-%03d", rng.Intn(400))); err != nil {
			t.Fatal(err)
		}
	}
	s1.Snapshot() // the warm-start artifact under test
	want := make([][]string, len(s1.shards))
	for i, sh := range s1.shards {
		want[i] = shardEvictionOrder(sh)
		if len(want[i]) == 0 {
			t.Fatalf("shard %d is empty", i)
		}
	}
	s1.Kill()

	cfg.Persist = pcfg()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.recovered.SnapshotOps == 0 || s2.recovered.ReplayedOps != 0 {
		t.Fatalf("warm start must come from snapshots alone: %+v", s2.recovered)
	}
	for i, sh := range s2.shards {
		got := shardEvictionOrder(sh)
		if len(got) != len(want[i]) {
			t.Fatalf("shard %d: %d entries after load, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("shard %d: eviction order diverges at %d: got %q, want %q",
					i, j, got[j], want[i][j])
			}
		}
	}
}

// TestConcurrentShardStress is the satellite concurrency test: many clients
// hammer a persisted multi-shard server with a mixed workload while tiny
// journals force off-lock compactions underneath. Run under -race in CI.
func TestConcurrentShardStress(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		MemoryBytes: 8 << 20,
		Shards:      8,
		Policy:      "camp",
		Persist: &PersistConfig{
			Dir:      dir,
			Fsync:    persist.FsyncNo,
			AOFLimit: 8 << 10, // compact constantly under load
			Logf:     t.Logf,
		},
	}
	s := startServer(t, cfg)
	const (
		clients = 8
		ops     = 400
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := kvclient.Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(200)) // shared keyspace: real contention
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					if _, _, err := c.Get(key); err != nil {
						errs <- fmt.Errorf("get: %w", err)
						return
					}
				case 4, 5, 6:
					if err := c.Set(key, []byte(fmt.Sprintf("v-%d-%d", id, i)), 0, 0, int64(1+rng.Intn(100))); err != nil {
						errs <- fmt.Errorf("set: %w", err)
						return
					}
				case 7:
					if _, err := c.Delete(key); err != nil {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				case 8:
					ctr := fmt.Sprintf("ctr%d", rng.Intn(20))
					if _, ok, err := c.Incr(ctr, 1); err != nil {
						errs <- fmt.Errorf("incr: %w", err)
						return
					} else if !ok {
						if err := c.Set(ctr, []byte("0"), 0, 0, 1); err != nil {
							errs <- fmt.Errorf("seed ctr: %w", err)
							return
						}
					}
				default:
					if _, err := c.Touch(key, 3600); err != nil {
						errs <- fmt.Errorf("touch: %w", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The server is consistent and responsive afterwards.
	c := dial(t, s)
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats["persist_errors"] != "0" {
		t.Fatalf("persist_errors = %q under stress", stats["persist_errors"])
	}
	if err := c.Set("final", []byte("ok"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get("final"); !ok || string(v) != "ok" {
		t.Fatal("server wedged after stress")
	}
}

// TestShardsConfigValidation pins the Config.Shards bounds.
func TestShardsConfigValidation(t *testing.T) {
	if _, err := New(Config{MemoryBytes: 1 << 20, Shards: -1}); err == nil {
		t.Fatal("negative Shards must error")
	}
	if _, err := New(Config{MemoryBytes: 1 << 20, Shards: MaxShards + 1}); err == nil {
		t.Fatal("excessive Shards must error")
	}
	s, err := New(Config{MemoryBytes: 1 << 20, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.shards); got != 3 {
		t.Fatalf("built %d shards, want 3", got)
	}
	var total int64
	for _, sh := range s.shards {
		total += sh.store.policy.Capacity()
	}
	if total != 1<<20 {
		t.Fatalf("shard capacities sum to %d, want %d", total, 1<<20)
	}
	s.Close()
}

// TestSnapshotOrderFidelityMidChurn is the v2 fidelity property at the
// server level: a randomized trace drives CAMP through heavy eviction churn
// (so the live priority offsets are non-uniform — the state order-only v1
// snapshots could not reproduce), a snapshot is cut mid-churn, the server is
// killed, and the warm restart must reproduce the live cache's full
// cross-queue eviction order exactly, shard by shard — the drain the
// pre-churn TestSnapshotOrderFidelity could not pin.
func TestSnapshotOrderFidelityMidChurn(t *testing.T) {
	for _, policy := range []string{"camp", "gds", "lru"} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			pcfg := func() *PersistConfig {
				return &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf}
			}
			cfg := Config{
				MemoryBytes: 48 << 10, // small on purpose: the workload must evict
				Shards:      2,
				Policy:      policy,
				DisableIQ:   true,
				Persist:     pcfg(),
			}
			s1 := startServer(t, cfg)
			c := dial(t, s1)
			rng := rand.New(rand.NewSource(7))
			costs := []int64{1, 1, 40, 40, 900, 20000} // repeats force shared queues
			// Mixed churn: sets over a keyspace larger than capacity plus
			// re-reads, so entries are admitted at many different L values
			// and the cross-queue offsets diverge.
			for i := 0; i < 2500; i++ {
				key := fmt.Sprintf("key-%03d", rng.Intn(600))
				if rng.Intn(4) == 0 {
					if _, _, err := c.Get(key); err != nil {
						t.Fatal(err)
					}
				} else if err := c.Set(key, make([]byte, 80), 0, 0, costs[rng.Intn(len(costs))]); err != nil {
					t.Fatal(err)
				}
			}
			for i, sh := range s1.shards {
				sh.mu.Lock()
				ev := sh.store.evictions()
				sh.mu.Unlock()
				if ev == 0 {
					t.Fatalf("shard %d: no evictions — mid-churn fidelity is vacuous", i)
				}
			}
			s1.Snapshot() // the mid-churn warm-start artifact under test
			wantState := captureState(s1)
			want := make([][]string, len(s1.shards))
			for i, sh := range s1.shards {
				want[i] = shardEvictionOrder(sh)
				if len(want[i]) == 0 {
					t.Fatalf("shard %d is empty", i)
				}
			}
			s1.Kill()

			cfg.Persist = pcfg()
			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.recovered.SnapshotOps == 0 || s2.recovered.ReplayedOps != 0 {
				t.Fatalf("warm start must come from snapshots alone: %+v", s2.recovered)
			}
			assertStateEqual(t, wantState, captureState(s2))
			for i, sh := range s2.shards {
				got := shardEvictionOrder(sh)
				if len(got) != len(want[i]) {
					t.Fatalf("shard %d: %d entries after load, want %d", i, len(got), len(want[i]))
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Fatalf("shard %d: eviction order diverges at %d/%d: got %q, want %q",
							i, j, len(got), got[j], want[i][j])
					}
				}
			}
		})
	}
}
