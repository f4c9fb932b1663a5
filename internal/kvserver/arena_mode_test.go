package kvserver

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"camp/internal/kvclient"
	"camp/internal/persist"
)

// arenaCfg is the baseline arena-mode server config the tests here share.
func arenaCfg(mem int64) Config {
	return Config{
		MemoryBytes: mem,
		Policy:      "camp",
		Mode:        ModeArena,
		DisableIQ:   true,
	}
}

// TestArenaModeRoundTrip runs the full verb set against an arena-mode server:
// every path that reads or writes resident bytes must go through the packed
// segments, not the item's (nil) value slice.
func TestArenaModeRoundTrip(t *testing.T) {
	s := startServer(t, arenaCfg(1<<20))
	c := dial(t, s)

	if _, ok, err := c.Get("nope"); err != nil || ok {
		t.Fatalf("Get(miss) = %v, %v", ok, err)
	}
	if err := c.Set("greeting", []byte("hello world"), 42, 0, 10); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("greeting")
	if err != nil || !ok || string(v) != "hello world" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	// Overwrite relocates the record; the old bytes become dead.
	if err := c.Set("greeting", []byte("rewritten"), 7, 0, 10); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ = c.Get("greeting"); !ok || string(v) != "rewritten" {
		t.Fatalf("Get after overwrite = %q, %v", v, ok)
	}
	line, found, err := c.Debug("greeting")
	if err != nil || !found || !strings.Contains(line, "flags=7") {
		t.Fatalf("Debug = %q, %v, %v", line, found, err)
	}

	// add / replace
	if stored, err := c.Add("greeting", []byte("x"), 0, 0, 1); err != nil || stored {
		t.Fatalf("Add(existing) = %v, %v", stored, err)
	}
	if stored, err := c.Add("fresh", []byte("abc"), 0, 0, 1); err != nil || !stored {
		t.Fatalf("Add(fresh) = %v, %v", stored, err)
	}
	if stored, err := c.Replace("fresh", []byte("def"), 0, 0, 1); err != nil || !stored {
		t.Fatalf("Replace = %v, %v", stored, err)
	}

	// append / prepend read the resident bytes from the arena mid-concat.
	if stored, err := c.Append("fresh", []byte("-tail")); err != nil || !stored {
		t.Fatalf("Append = %v, %v", stored, err)
	}
	if stored, err := c.Prepend("fresh", []byte("head-")); err != nil || !stored {
		t.Fatalf("Prepend = %v, %v", stored, err)
	}
	if v, ok, _ = c.Get("fresh"); !ok || string(v) != "head-def-tail" {
		t.Fatalf("Get after concat = %q, %v", v, ok)
	}

	// incr / decr parse the arena bytes and write back a packed record.
	if err := c.Set("ctr", []byte("41"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if n, ok, err := c.Incr("ctr", 1); err != nil || !ok || n != 42 {
		t.Fatalf("Incr = %d, %v, %v", n, ok, err)
	}
	if n, ok, err := c.Decr("ctr", 2); err != nil || !ok || n != 40 {
		t.Fatalf("Decr = %d, %v, %v", n, ok, err)
	}

	// touch rewrites the expiry in place (index and packed header).
	if touched, err := c.Touch("ctr", 3600); err != nil || !touched {
		t.Fatalf("Touch = %v, %v", touched, err)
	}
	if v, ok, _ = c.Get("ctr"); !ok || string(v) != "40" {
		t.Fatalf("Get after touch = %q, %v", v, ok)
	}

	got, err := c.MultiGet("greeting", "fresh", "missing", "ctr")
	if err != nil || len(got) != 3 || string(got["greeting"]) != "rewritten" {
		t.Fatalf("MultiGet = %v, %v", got, err)
	}

	if deleted, err := c.Delete("greeting"); err != nil || !deleted {
		t.Fatalf("Delete = %v, %v", deleted, err)
	}
	if _, ok, _ = c.Get("greeting"); ok {
		t.Fatal("deleted key still readable")
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ = c.Get("fresh"); ok {
		t.Fatal("flushed key still readable")
	}
}

// TestArenaModeChurnCompaction drives enough overwrite churn through small
// segments that the incremental compactor must run, then checks the arena
// gauges and that every surviving key still reads back its last value —
// compaction relocates live records without corrupting them.
func TestArenaModeChurnCompaction(t *testing.T) {
	cfg := arenaCfg(1 << 20)
	cfg.Shards = 1
	cfg.ArenaSegment = 16 << 10
	s := startServer(t, cfg)
	c := dial(t, s)

	const keys = 64
	val := func(i, round int) []byte {
		return []byte(fmt.Sprintf("key%02d-round%03d-%s", i, round, strings.Repeat("x", 480)))
	}
	rounds := 40
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			if err := c.SetNoreply(fmt.Sprintf("key%02d", i), val(i, r), 0, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Version(); err != nil { // sync point: all noreply sets applied
		t.Fatal(err)
	}

	for i := 0; i < keys; i++ {
		v, ok, err := c.Get(fmt.Sprintf("key%02d", i))
		if err != nil || !ok || string(v) != string(val(i, rounds-1)) {
			t.Fatalf("key%02d after churn: ok=%v err=%v", i, ok, err)
		}
	}

	shards, err := c.Stats("stats shards")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shards["shard1_items"]; ok {
		t.Fatalf("got more than 1 shard: %v", shards)
	}
	arena := func(name string) int64 { return statInt(t, shards, "shard0_arena_"+name) }
	if arena("live_bytes") <= 0 || arena("segments") <= 0 {
		t.Fatalf("arena gauges not live: %v", shards)
	}
	if arena("held_bytes") < arena("live_bytes")+arena("dead_bytes") {
		t.Fatalf("held %d < live %d + dead %d", arena("held_bytes"), arena("live_bytes"), arena("dead_bytes"))
	}
	if arena("compactions") == 0 || arena("relocated_bytes") == 0 {
		t.Fatalf("churn of %d sets never compacted: %v", rounds*keys, shards)
	}

	// The running store-resident total must agree with a from-scratch resum
	// after all that churn (the arbiter trusts the cached figure).
	checkServer(t, s)
}

// TestArenaModeEviction fills an arena-mode server well past capacity and
// checks the policy keeps evicting packed records to admit new ones.
func TestArenaModeEviction(t *testing.T) {
	cfg := arenaCfg(256 << 10)
	cfg.Shards = 1
	s := startServer(t, cfg)
	c := dial(t, s)

	value := []byte(strings.Repeat("v", 1024))
	const n = 600 // ~600 KiB of 1 KiB values into a 256 KiB shard
	for i := 0; i < n; i++ {
		if err := c.Set(fmt.Sprintf("bulk-%03d", i), value, 0, 0, 1); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if totalEvictions(s) == 0 {
		t.Fatal("no evictions after overfilling the arena")
	}
	// The newest key was just admitted and must be readable.
	if v, ok, err := c.Get(fmt.Sprintf("bulk-%03d", n-1)); err != nil || !ok || len(v) != len(value) {
		t.Fatalf("newest key after eviction churn: ok=%v err=%v", ok, err)
	}
	checkServer(t, s)
}

// TestArenaModeOversizeValue stores a value larger than the segment size; the
// arena gives it a dedicated segment and it reads back intact.
func TestArenaModeOversizeValue(t *testing.T) {
	cfg := arenaCfg(1 << 20)
	cfg.Shards = 1
	cfg.ArenaSegment = 8 << 10
	s := startServer(t, cfg)
	c := dial(t, s)

	big := []byte(strings.Repeat("B", 64<<10))
	if err := c.Set("big", big, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("big")
	if err != nil || !ok || string(v) != string(big) {
		t.Fatalf("oversize round trip: ok=%v err=%v len=%d", ok, err, len(v))
	}
}

// TestArenaModeWarmRestart pins that arena mode persists and recovers like
// byte mode: the journal carries the record bytes, and a restart rebuilds the
// packed segments with values, flags, expiries and costs intact.
func TestArenaModeWarmRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func(addr string) Config {
		cfg := arenaCfg(4 << 20)
		cfg.Addr = addr
		cfg.Shards = 2
		cfg.Persist = &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf}
		return cfg
	}
	s1 := startServer(t, mk(""))
	c := dial(t, s1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%03d", i)
		val := fmt.Sprintf("v%03d-%d", i, rng.Int63())
		if err := c.Set(key, []byte(val), uint32(i), 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // overwrite churn so recovery replays dead records too
		key := fmt.Sprintf("k%03d", i)
		if err := c.Set(key, []byte(fmt.Sprintf("rewrite-%03d", i)), uint32(i), 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Delete("k100"); err != nil {
		t.Fatal(err)
	}
	want := captureState(s1)
	addr := s1.Addr()
	s1.Kill()

	s2 := startServer(t, mk(addr))
	assertStateEqual(t, want, captureState(s2))
	c2 := dial(t, s2)
	if v, ok, err := c2.Get("k012"); err != nil || !ok || string(v) != "rewrite-012" {
		t.Fatalf("recovered read = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := c2.Get("k100"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	checkServer(t, s2)
}

// TestArenaModeTenants pins that multi-tenancy (gated on byte mode before
// the arena landed) runs on arena mode: tenant switching, namespace
// isolation, reserves, and per-tenant accounting.
func TestArenaModeTenants(t *testing.T) {
	cfg := arenaCfg(1 << 20)
	cfg.TenantReserves = map[string]int64{"gold": 256 << 10}
	s := startServer(t, cfg)

	gold, err := kvclient.DialWithTenant(s.Addr(), "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	def := dial(t, s)

	if err := gold.Set("shared", []byte("gold-copy"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := def.Set("shared", []byte("default-copy"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := gold.Get("shared"); !ok || string(v) != "gold-copy" {
		t.Fatalf("gold read = %q, %v", v, ok)
	}
	if v, ok, _ := def.Get("shared"); !ok || string(v) != "default-copy" {
		t.Fatalf("default read = %q, %v", v, ok)
	}
	stats, err := def.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	if statInt(t, stats, "tenant:gold:bytes") == 0 || statInt(t, stats, "tenant:gold:reserved_bytes") != 256<<10 {
		t.Fatalf("tenant stats: %v", stats)
	}
	checkServer(t, s)
}

// TestNegativeExptimeExpiresImmediately is the regression test for the
// immortal-item bug: memcached treats a negative exptime as "already
// expired", but expiryFrom used to collapse every ttl <= 0 into "no expiry",
// so "set ... -1" stored a key that never died. Pinned across modes and for
// touch, which shared the mapping.
func TestNegativeExptimeExpiresImmediately(t *testing.T) {
	for _, mode := range []string{ModeByte, ModeArena} {
		t.Run(mode, func(t *testing.T) {
			cfg := arenaCfg(1 << 20)
			cfg.Mode = mode
			s := startServer(t, cfg)
			c := dial(t, s)

			// A negative exptime stores STORED (memcached semantics) but the
			// item must never be readable.
			if err := c.Set("doomed", []byte("x"), 0, -1, 1); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := c.Get("doomed"); ok {
				t.Fatal("set with exptime -1 produced a readable item")
			}

			// Zero still means immortal.
			if err := c.Set("kept", []byte("y"), 0, 0, 1); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := c.Get("kept"); !ok {
				t.Fatal("set with exptime 0 must stay resident")
			}

			// touch <key> -1 invalidates a live item.
			if touched, err := c.Touch("kept", -1); err != nil || !touched {
				t.Fatalf("Touch(-1) = %v, %v", touched, err)
			}
			if _, ok, _ := c.Get("kept"); ok {
				t.Fatal("touch with exptime -1 left the item readable")
			}
		})
	}
}

// TestNegativeExptimeSurvivesReplayAndReplication pins the durable half of
// the fix: the already-expired deadline rides the KindSet/KindTouch records,
// so neither a warm restart nor a replica resurrects the item.
func TestNegativeExptimeSurvivesReplayAndReplication(t *testing.T) {
	dir := t.TempDir()
	mk := func(addr string) Config {
		return Config{
			Addr:        addr,
			MemoryBytes: 1 << 20,
			Policy:      "camp",
			DisableIQ:   true,
			Persist:     &PersistConfig{Dir: dir, Fsync: persist.FsyncAlways, Logf: t.Logf},
		}
	}
	p := startServer(t, mk(""))
	c := dial(t, p)
	if err := c.Set("neg-set", []byte("a"), 0, -1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("touched-dead", []byte("b"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if touched, err := c.Touch("touched-dead", -1); err != nil || !touched {
		t.Fatalf("Touch(-1) = %v, %v", touched, err)
	}
	if err := c.Set("control", []byte("c"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}

	// Replica apply: the follower consumes the same journal records.
	f := startReplica(t, p, Config{MemoryBytes: 1 << 20, Policy: "camp", DisableIQ: true})
	waitCaughtUp(t, p, f)
	cf := dial(t, f)
	if _, ok, _ := cf.Get("neg-set"); ok {
		t.Fatal("replica resurrected a set with exptime -1")
	}
	if _, ok, _ := cf.Get("touched-dead"); ok {
		t.Fatal("replica resurrected a touch with exptime -1")
	}
	if v, ok, _ := cf.Get("control"); !ok || string(v) != "c" {
		t.Fatalf("replica control read = %q, %v", v, ok)
	}

	// Journal replay: a warm restart from the same records.
	addr := p.Addr()
	p.Kill()
	p2 := startServer(t, mk(addr))
	c2 := dial(t, p2)
	if _, ok, _ := c2.Get("neg-set"); ok {
		t.Fatal("recovery resurrected a set with exptime -1")
	}
	if _, ok, _ := c2.Get("touched-dead"); ok {
		t.Fatal("recovery resurrected a touch with exptime -1")
	}
	if v, ok, _ := c2.Get("control"); !ok || string(v) != "c" {
		t.Fatalf("recovered control read = %q, %v", v, ok)
	}
}

// TestUsedTotalsInvariantUnderChurn cross-checks the arbiter's running
// store-resident total against a recomputation after a mixed single- and
// multi-tenant workload with evictions — the batched arbiter only walks
// tenants once per batch, so the cached figure must never drift.
func TestUsedTotalsInvariantUnderChurn(t *testing.T) {
	cfg := Config{
		MemoryBytes:    256 << 10,
		Shards:         2,
		Policy:         "camp",
		DisableIQ:      true,
		TenantReserves: map[string]int64{"gold": 64 << 10},
	}
	s := startServer(t, cfg)

	def := dial(t, s)
	gold, err := kvclient.DialWithTenant(s.Addr(), "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	bronze, err := kvclient.DialWithTenant(s.Addr(), "bronze")
	if err != nil {
		t.Fatal(err)
	}
	defer bronze.Close()

	rng := rand.New(rand.NewSource(99))
	clients := []*kvclient.Client{def, gold, bronze}
	value := []byte(strings.Repeat("z", 700))
	for i := 0; i < 1500; i++ {
		c := clients[rng.Intn(len(clients))]
		key := fmt.Sprintf("churn-%03d", rng.Intn(400))
		switch rng.Intn(10) {
		case 0:
			if _, err := c.Delete(key); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := c.Touch(key, int64(rng.Intn(3)-1)); err != nil {
				t.Fatal(err)
			}
		default:
			if err := c.Set(key, value[:rng.Intn(len(value))+1], 0, 0, int64(rng.Intn(8)+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if totalEvictions(s) == 0 {
		t.Fatal("churn never triggered the arbiter")
	}
	checkServer(t, s)

	// flush_all resets the totals with everything else.
	if err := def.FlushAllTenants(); err != nil {
		t.Fatal(err)
	}
	checkServer(t, s)
	for _, sh := range s.shards {
		sh.mu.Lock()
		used := sh.store.used()
		sh.mu.Unlock()
		if used != 0 {
			t.Fatalf("used total %d after flush_all all, want 0", used)
		}
	}
}

// TestArenaModePrometheusFamilies spot-checks that the arena families carry
// samples on an arena-mode server (the zero-sample rendering on other modes
// is pinned by TestMetricsEndpoint's required-families list).
func TestArenaModePrometheusFamilies(t *testing.T) {
	cfg := arenaCfg(1 << 20)
	cfg.MetricsAddr = "127.0.0.1:0"
	s := startServer(t, cfg)
	c := dial(t, s)
	if err := c.Set("k", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	body := string(raw)
	if !strings.Contains(body, `camp_shard_arena_live_bytes{shard="0"}`) {
		t.Fatalf("metrics body lacks arena live-bytes sample:\n%s", body)
	}
	if !strings.Contains(body, `camp_shard_arena_segments{shard="0"}`) {
		t.Fatal("metrics body lacks arena segments sample")
	}
}
