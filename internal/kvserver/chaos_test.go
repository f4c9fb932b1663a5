package kvserver

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"camp/internal/fault"
	"camp/internal/persist"
)

// degradedShards counts the shards serving cache-only.
func degradedShards(s *Server) (n int64) {
	for _, sh := range s.shards {
		n += b2i(sh.degraded.Load())
	}
	return n
}

// waitDegraded polls until exactly want shards report persist-degraded.
func waitDegraded(t *testing.T, s *Server, want int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for degradedShards(s) != want {
		if time.Now().After(deadline) {
			t.Fatalf("degraded shards = %d, want %d (after %v)", degradedShards(s), want, within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDegradedModeEndToEnd pins the issue's acceptance criterion
// deterministically: with injected fsync (or ENOSPC) faults on every shard,
// the server keeps serving cache-only and reports the degradation; once the
// fault is lifted, the background prober restores healthy operation with a
// clean compaction snapshot, and writes are durable again — including the
// ones taken while degraded, which that snapshot captures.
func TestDegradedModeEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule fault.Rule
	}{
		{name: "fsync-eio", rule: fault.Rule{Op: fault.OpSync, Err: fault.ErrIO}},
		{name: "write-enospc", rule: fault.Rule{Op: fault.OpWrite, Err: fault.ErrNoSpace}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector(nil, 42)
			pcfg := func() *PersistConfig {
				return &PersistConfig{
					Dir:      dir,
					Fsync:    persist.FsyncAlways,
					FS:       inj,
					ProbeMin: 5 * time.Millisecond,
					ProbeMax: 50 * time.Millisecond,
					Logf:     t.Logf,
				}
			}
			cfg := Config{MemoryBytes: 8 << 20, Shards: 4, Persist: pcfg()}
			s := startServer(t, cfg)
			c := dial(t, s)

			if err := c.Set("pre", []byte("before-fault"), 1, 0, 10); err != nil {
				t.Fatal(err)
			}

			// Break the disk under every shard, then write enough keys that
			// each shard journals at least once and trips over the fault.
			inj.Fail(tc.rule)
			for i := 0; i < 64; i++ {
				if err := c.Set(fmt.Sprintf("deg:%02d", i), []byte("during-fault"), 2, 0, 5); err != nil {
					t.Fatalf("set during fault must still be served: %v", err)
				}
			}
			waitDegraded(t, s, int64(cfg.Shards), 5*time.Second)

			// Degraded is visible: stats, and the per-shard breakdown.
			stats, err := c.Stats("stats")
			if err != nil {
				t.Fatal(err)
			}
			if got := stats["persist_degraded"]; got != strconv.Itoa(cfg.Shards) {
				t.Fatalf("STAT persist_degraded = %q, want %d", got, cfg.Shards)
			}

			// Cache-only service continues: reads hit, writes land.
			if v, ok, err := c.Get("pre"); err != nil || !ok || string(v) != "before-fault" {
				t.Fatalf("degraded read = %q, %v, %v", v, ok, err)
			}
			if err := c.Set("still-writable", []byte("yes"), 0, 0, 1); err != nil {
				t.Fatal(err)
			}

			// Lift the fault; the prober must bring every shard back on its
			// own, via a clean compaction snapshot.
			inj.Heal()
			waitDegraded(t, s, 0, 10*time.Second)
			if got := s.counters.persistErrors.Load(); got == 0 {
				t.Fatal("persist_errors = 0 after an injected fault")
			}

			// Durable again: post-heal writes and the degraded-era state both
			// survive a graceful restart (the heal snapshot captured them).
			if err := c.Set("post", []byte("after-heal"), 3, 0, 7); err != nil {
				t.Fatal(err)
			}
			want := captureState(s)
			if err := s.Close(); err != nil {
				t.Fatalf("Close after heal: %v", err)
			}
			s2, err := New(Config{MemoryBytes: 8 << 20, Shards: 4, Persist: pcfg()})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			assertStateEqual(t, want, captureState(s2))
		})
	}
}

// TestHealedPrimaryForcesFullSync pins the replication half of healing. What
// a degraded shard applies is never journaled: the healing compaction puts it
// only in the next generation's snapshot. A follower whose feed was open
// across the outage must therefore not be carried from the old segment into
// the new one (it would converge on the journal and silently miss every
// degraded-era write and delete); the primary must make it resync in full,
// once per shard.
func TestHealedPrimaryForcesFullSync(t *testing.T) {
	const shards = 2
	inj := fault.NewInjector(nil, 42)
	pcfg := func(fs fault.FS) *PersistConfig {
		return &PersistConfig{
			Dir:      t.TempDir(),
			Fsync:    persist.FsyncAlways,
			FS:       fs,
			ProbeMin: 5 * time.Millisecond,
			ProbeMax: 50 * time.Millisecond,
			Logf:     t.Logf,
		}
	}
	primary := startServer(t, Config{MemoryBytes: 8 << 20, Shards: shards, Persist: pcfg(inj)})
	fcfg := Config{MemoryBytes: 8 << 20, Shards: shards, Persist: pcfg(nil)}
	fcfg.ReplicaOf = primary.Addr()
	follower := startServer(t, fcfg)
	c := dial(t, primary)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	mutate := func(lo, hi int, value string) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if i%4 == 3 {
				if _, err := c.Delete(key(i)); err != nil {
					t.Fatal(err)
				}
			} else if err := c.Set(key(i), []byte(value), 0, 0, int64(1+i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i := 0; i < 48; i++ {
		if err := c.Set(key(i), []byte("healthy"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, primary, follower)
	assertStateEqual(t, captureState(primary), captureState(follower))
	served := primary.counters.replFullSyncsServed.Load()

	// The first batch trips every shard over the fault; the second lands on
	// shards already serving cache-only, new keys included.
	inj.Fail(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO})
	mutate(0, 32, "tripping")
	waitDegraded(t, primary, shards, 5*time.Second)
	mutate(16, 64, "degraded")

	inj.Heal()
	waitDegraded(t, primary, 0, 10*time.Second)
	mutate(40, 72, "healed")
	waitCaughtUp(t, primary, follower)
	assertStateEqual(t, captureState(primary), captureState(follower))
	if got := primary.counters.replFullSyncsServed.Load() - served; got != shards {
		t.Fatalf("healing served %d full syncs, want one per shard (%d)", got, shards)
	}
}

// chaosEnv reads an integer knob for the chaos harness.
func chaosEnv(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// TestChaosPrimaryFollower is the randomized chaos harness ("make chaos"):
// a primary+follower pair driven through seeded schedules of disk faults
// (EIO, ENOSPC, fail-once fsync, torn writes — on both sides) and network
// faults on the replication link (latency, one-way partitions, mid-frame
// truncation, dropped and refused connections), under a randomized client
// workload. Throughout: the primary never stops serving. Afterwards: every
// degraded shard heals on its own, the follower converges byte-exact
// (CONTINUE/FULLSYNC decisions must have stayed correct under every
// partition and truncated stream), and a graceful restart of the primary
// reproduces its full live state.
//
// Skipped unless CAMP_CHAOS is set; CAMP_CHAOS_SEED and CAMP_CHAOS_ROUNDS
// pick the schedule. The harness reports the seed on failure so a run can
// be replayed exactly.
func TestChaosPrimaryFollower(t *testing.T) {
	if os.Getenv("CAMP_CHAOS") == "" {
		t.Skip("chaos harness: set CAMP_CHAOS=1 (or run 'make chaos') to enable")
	}
	seed := chaosEnv("CAMP_CHAOS_SEED", 1)
	rounds := int(chaosEnv("CAMP_CHAOS_ROUNDS", 8))
	t.Logf("chaos: seed=%d rounds=%d (replay: CAMP_CHAOS_SEED=%d)", seed, rounds, seed)
	rnd := rand.New(rand.NewSource(seed))

	const shards = 4
	pcfg := func(dir string, fs fault.FS) *PersistConfig {
		return &PersistConfig{
			Dir:      dir,
			Fsync:    persist.FsyncEverySec,
			AOFLimit: 1 << 20,
			FS:       fs,
			ProbeMin: 5 * time.Millisecond,
			ProbeMax: 100 * time.Millisecond,
			Logf:     t.Logf,
		}
	}
	primDir := t.TempDir()
	primInj := fault.NewInjector(nil, seed)
	primary := startServer(t, Config{
		MemoryBytes: 64 << 20, Shards: shards, Persist: pcfg(primDir, primInj),
	})

	proxy, err := fault.NewProxy("127.0.0.1:0", primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	folInj := fault.NewInjector(nil, seed+1)
	folCfg := Config{
		MemoryBytes: 64 << 20, Shards: shards, Persist: pcfg(t.TempDir(), folInj),
	}
	folCfg.ReplicaOf = proxy.Addr()
	follower := startServer(t, folCfg)

	c := dial(t, primary)
	val := func(i, round int) []byte { return []byte(fmt.Sprintf("v%03d.r%02d", i, round)) }

	for round := 0; round < rounds; round++ {
		// Disk fault schedule for this round.
		switch rnd.Intn(6) {
		case 0:
			primInj.Fail(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO, Prob: 0.5})
		case 1:
			primInj.Fail(fault.Rule{Op: fault.OpWrite, Err: fault.ErrNoSpace, After: rnd.Intn(20)})
		case 2:
			primInj.Fail(fault.Rule{Op: fault.OpWrite, TornWrite: true, Count: 1, After: rnd.Intn(10)})
		case 3:
			folInj.Fail(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO, Count: 2})
		case 4:
			folInj.Fail(fault.Rule{Op: fault.OpWrite, Err: fault.ErrNoSpace, Prob: 0.3})
		case 5:
			// Disk behaves this round.
		}
		// Network fault schedule for the replication link.
		switch rnd.Intn(6) {
		case 0:
			proxy.SetLatency(time.Duration(1+rnd.Intn(4)) * time.Millisecond)
		case 1:
			proxy.SetBlackhole(fault.Down, true)
		case 2:
			proxy.SetBlackhole(fault.Up, true)
		case 3:
			proxy.TruncateAfter(fault.Down, int64(rnd.Intn(8192)))
		case 4:
			proxy.DropConns()
		case 5:
			// Network behaves this round.
		}

		// Randomized workload against the primary. Every op must be served —
		// a degraded shard is still a serving shard.
		for i := 0; i < 200; i++ {
			switch r := rnd.Float64(); {
			case r < 0.70:
				k := fmt.Sprintf("chaos:%03d", rnd.Intn(400))
				if err := c.Set(k, val(rnd.Intn(400), round), uint32(round), 0, int64(1+rnd.Intn(100))); err != nil {
					t.Fatalf("round %d: set: %v (seed %d)", round, err, seed)
				}
			case r < 0.85:
				if _, err := c.Delete(fmt.Sprintf("chaos:%03d", rnd.Intn(400))); err != nil {
					t.Fatalf("round %d: delete: %v (seed %d)", round, err, seed)
				}
			default:
				if _, _, err := c.Get(fmt.Sprintf("chaos:%03d", rnd.Intn(400))); err != nil {
					t.Fatalf("round %d: get: %v (seed %d)", round, err, seed)
				}
			}
		}

		// The server (and its stats surface) is alive, degraded or not.
		if _, err := c.Stats("stats"); err != nil {
			t.Fatalf("round %d: stats: %v (seed %d)", round, err, seed)
		}
		// Whatever the faults did to disks and links, each node's index,
		// policies and layout still agree.
		checkServer(t, primary)
		checkServer(t, follower)

		// Sometimes heal mid-run so the prober's recovery also runs while
		// chaos continues on the other axis.
		if rnd.Intn(2) == 0 {
			primInj.Heal()
			folInj.Heal()
		}
		if rnd.Intn(2) == 0 {
			proxy.SetLatency(0)
			proxy.SetBlackhole(fault.Both, false)
			proxy.TruncateAfter(fault.Down, -1)
		}
	}

	// End of chaos: lift everything and demand full convergence.
	primInj.Heal()
	folInj.Heal()
	proxy.SetLatency(0)
	proxy.SetBlackhole(fault.Both, false)
	proxy.TruncateAfter(fault.Up, -1)
	proxy.TruncateAfter(fault.Down, -1)
	proxy.SetRefuse(false)
	proxy.DropConns() // force fresh streams through the now-clean link

	waitDegraded(t, primary, 0, 30*time.Second)
	waitDegraded(t, follower, 0, 30*time.Second)
	waitCaughtUp(t, primary, follower)
	assertStateEqual(t, captureState(primary), captureState(follower))

	// Durability: a graceful drain of the primary and a cold restart from
	// its data dir must reproduce the live state exactly.
	want := captureState(primary)
	follower.Close()
	if err := primary.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("primary Shutdown: %v (seed %d)", err, seed)
	}
	re, err := New(Config{MemoryBytes: 64 << 20, Shards: shards, Persist: pcfg(primDir, primInj)})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStateEqual(t, want, captureState(re))
}
