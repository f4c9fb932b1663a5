package kvserver

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"camp/internal/kvclient"
	"camp/internal/metrics"
)

// TestMetricsGate is the live-scrape gate `make metrics-gate` runs in CI: a
// server with -metrics-addr must serve syntactically valid Prometheus text
// with every family testdata/stats_surface.golden pins, per-verb latency histogram samples, per-shard
// gauges — and a working pprof endpoint, CPU profile included.
func TestMetricsGate(t *testing.T) {
	s := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Shards:      2,
		MetricsAddr: "127.0.0.1:0",
	})
	c := dial(t, s)
	if err := c.Set("gate-key", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("gate-key"); err != nil {
		t.Fatal(err)
	}

	base := "http://" + s.MetricsAddr()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	text := string(body)
	fams, err := metrics.ValidateText(text)
	if err != nil {
		t.Fatalf("/metrics output invalid: %v", err)
	}
	if err := metrics.RequireFamilies(fams, goldenFamilies(t)...); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`camp_cmd_total{verb="set"} 1`,
		`camp_latency_seconds_count{verb="set"} 1`,
		`camp_latency_seconds_count{verb="get"} 1`,
		`camp_latency_seconds_bucket{verb="get",le="+Inf"} 1`,
		`camp_shard_items{shard="0"} `,
		`camp_shard_items{shard="1"} `,
		`camp_connections_current 1`,
		`camp_limit_bytes 1048576`,
		`camp_tenant_bytes{tenant="default"} `,
		`camp_tenant_hits_total{tenant="default"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// pprof: the index must list profiles, and a short CPU profile must
	// stream back non-empty (the gzip'd protobuf always has content).
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(idx), "goroutine") {
		t.Fatalf("pprof index: status %d, body %.80q", resp.StatusCode, idx)
	}
	resp, err = http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(prof) == 0 {
		t.Fatalf("pprof profile: status %d, %d bytes", resp.StatusCode, len(prof))
	}
}

// TestStatsLineSet pins the exact key set of the main stats reply on a
// volatile (non-persist, non-replica) server to the one
// testdata/stats_surface.golden records for the same configuration, and
// checks the identity, connection and miss-table values.
func TestStatsLineSet(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 2})
	c := dial(t, s)
	if err := c.Set("k", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenBlock(t, "byte, 2 shards", "stats (sorted)")
	got := make([]string, 0, len(stats))
	for k := range stats {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("stats key set changed:\n got %v\nwant %v", got, want)
	}
	if stats["version"] != serverVersion {
		t.Errorf("version = %q, want %q", stats["version"], serverVersion)
	}
	if stats["pointer_size"] != strconv.Itoa(strconv.IntSize) {
		t.Errorf("pointer_size = %q", stats["pointer_size"])
	}
	if stats["curr_connections"] != "1" || stats["total_connections"] != "1" {
		t.Errorf("connection stats = %s/%s, want 1/1",
			stats["curr_connections"], stats["total_connections"])
	}
	for _, k := range []string{"bytes_read", "bytes_written"} {
		if n, _ := strconv.Atoi(stats[k]); n <= 0 {
			t.Errorf("%s = %q, want > 0", k, stats[k])
		}
	}
	if stats["iq_miss_table_entries"] != "0" {
		t.Errorf("iq_miss_table_entries = %q, want 0 (no misses yet)", stats["iq_miss_table_entries"])
	}
	// A get miss must show up in the miss table; the set that resolves it
	// must drain it.
	if _, _, err := c.Get("missed-key"); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Stats("stats"); st["iq_miss_table_entries"] != "1" {
		t.Errorf("iq_miss_table_entries after miss = %q, want 1", st["iq_miss_table_entries"])
	}
	if err := c.Set("missed-key", []byte("v"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Stats("stats"); st["iq_miss_table_entries"] != "0" {
		t.Errorf("iq_miss_table_entries after resolving set = %q, want 0", st["iq_miss_table_entries"])
	}
}

// TestStatsLatencyAndShards reads "stats latency" and "stats shards" over the
// wire, each figure by the name the stats golden pins.
func TestStatsLatencyAndShards(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 4, Persist: &PersistConfig{Dir: t.TempDir()}})
	c := dial(t, s)
	const sets = 32
	for i := 0; i < sets; i++ {
		if err := c.Set(fmt.Sprintf("k%03d", i), []byte("value"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get("k000"); err != nil {
		t.Fatal(err)
	}

	lat, err := c.Stats("stats latency")
	if err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"get", "set", "add", "replace", "append",
		"prepend", "incr", "decr", "touch", "delete", "other"} {
		if _, ok := lat[verb+"_count"]; !ok {
			t.Errorf("stats latency missing verb %q", verb)
		}
	}
	us := func(name string) int64 { return statInt(t, lat, name) }
	if n := us("set_count"); n != sets {
		t.Errorf("set count = %d, want %d", n, sets)
	}
	if n := us("get_count"); n != 1 {
		t.Errorf("get count = %d, want 1", n)
	}
	if us("set_p99_us") < us("set_p50_us") || us("set_p50_us") <= 0 {
		t.Errorf("set quantiles implausible: %v", lat)
	}
	if us("set_sum_us") <= 0 || us("set_avg_us") <= 0 {
		t.Errorf("set sum/avg implausible: %v", lat)
	}
	if n := us("delete_count"); n != 0 {
		t.Errorf("delete count = %d, want 0", n)
	}

	shardStats, err := c.Stats("stats shards")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shardStats["shard4_items"]; ok {
		t.Fatalf("stats shards reports a fifth shard: %v", shardStats)
	}
	var items, ops, lockHolds, journalBytes int64
	for i := 0; i < 4; i++ {
		shard := func(name string) int64 { return statInt(t, shardStats, fmt.Sprintf("shard%d_%s", i, name)) }
		items += shard("items")
		ops += shard("ops")
		lockHolds += shard("lock_holds")
		journalBytes += shard("journal_bytes")
		if shard("journal_gen") == 0 {
			t.Errorf("shard%d_journal_gen = 0 with persistence on", i)
		}
	}
	if items != sets {
		t.Errorf("summed shard items = %d, want %d", items, sets)
	}
	if ops != sets+1 {
		t.Errorf("summed shard ops = %d, want %d", ops, sets+1)
	}
	if lockHolds != sets {
		t.Errorf("summed lock holds = %d, want %d (one per set)", lockHolds, sets)
	}
	if journalBytes <= 0 {
		t.Errorf("summed journal bytes = %d, want > 0", journalBytes)
	}
}

// TestSlowlogEndToEnd drives the slowlog over the wire: threshold 0 records
// every command with verb, key, duration and timestamp; reset clears; a
// raised threshold stops recording.
func TestSlowlogEndToEnd(t *testing.T) {
	s, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// The slowlog renders whole microseconds, and a bare set can finish in
	// less than one, so the slow command is made slow: the hook runs inside
	// the command's timed region.
	s.testHookCmd = func(toks [][]byte) {
		if len(toks) >= 2 && string(toks[0]) == "set" && string(toks[1]) == "slow-key" {
			time.Sleep(2 * time.Millisecond)
		}
	}
	serve(t, s)
	c := dial(t, s)

	// Default threshold (10ms): nothing this fast gets recorded.
	if err := c.Set("fast", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	entries, err := c.Slowlog()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("slowlog not empty at default threshold: %+v", entries)
	}

	// Threshold 0 records everything — the injected "slow" command.
	if err := c.SlowlogSetThreshold(0); err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	if err := c.Set("slow-key", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	entries, err = c.Slowlog()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("slowlog empty at threshold 0")
	}
	e := entries[0]
	if e.Verb != "set" || e.Key != "slow-key" {
		t.Fatalf("entry = %+v, want set slow-key", e)
	}
	if e.Duration < time.Millisecond {
		t.Errorf("duration = %v, want the injected 2ms sleep (>= 1ms)", e.Duration)
	}
	if e.Time.Before(before.Add(-2*time.Second)) || e.Time.After(time.Now().Add(2*time.Second)) {
		t.Errorf("timestamp %v implausible (now %v)", e.Time, time.Now())
	}
	if e.ID == 0 {
		t.Errorf("ID = 0, want monotonic from 1")
	}

	// Raise the threshold before resetting: at threshold 0 the reset
	// command itself would be recorded right after it cleared the ring
	// (commands observe after their handler runs).
	if err := c.SlowlogSetThreshold(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.SlowlogReset(); err != nil {
		t.Fatal(err)
	}
	if entries, err = c.Slowlog(); err != nil || len(entries) != 0 {
		t.Fatalf("after reset: %d entries, err %v", len(entries), err)
	}

	// At the raised threshold fast commands stay unrecorded.
	if err := c.Set("fast2", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if entries, err = c.Slowlog(); err != nil || len(entries) != 0 {
		t.Fatalf("after raising threshold: %d entries, err %v", len(entries), err)
	}

	// Bad subcommands answer CLIENT_ERROR without killing the connection.
	conn := rawDial(t, s)
	defer conn.Close()
	if got := sendLine(t, conn, "slowlog bogus"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("slowlog bogus = %q", got)
	}
}

// TestReplicationLagMetrics checks both sides' replication gauges: the
// primary's per-feed position series and the follower's stream staleness.
func TestReplicationLagMetrics(t *testing.T) {
	pCfg := Config{MemoryBytes: 1 << 20, Persist: &PersistConfig{Dir: t.TempDir()}}
	p := startServer(t, pCfg)
	f := startReplica(t, p, Config{MemoryBytes: 1 << 20, Persist: &PersistConfig{Dir: t.TempDir()}})

	c := dial(t, p)
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f)

	var sb strings.Builder
	if err := p.metrics.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	ptext := sb.String()
	if _, err := metrics.ValidateText(ptext); err != nil {
		t.Fatalf("primary registry invalid: %v", err)
	}
	for _, want := range []string{
		`camp_repl_feed_generation{shard="0",feed="1"} `,
		`camp_repl_feed_offset_bytes{shard="0",feed="1"} `,
		`camp_repl_feed_lag_bytes{shard="0",feed="1"} 0`,
	} {
		if !strings.Contains(ptext, want) {
			t.Errorf("primary metrics missing %q:\n%s", want, ptext)
		}
	}

	sb.Reset()
	if err := f.metrics.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	ftext := sb.String()
	if _, err := metrics.ValidateText(ftext); err != nil {
		t.Fatalf("follower registry invalid: %v", err)
	}
	for _, want := range []string{
		`camp_repl_connected{shard="0"} 1`,
		`camp_repl_applied_ops_total{shard="0"} `,
		`camp_repl_lag_seconds{shard="0"} `,
		`camp_repl_durable_position{shard="0"} 1`,
	} {
		if !strings.Contains(ftext, want) {
			t.Errorf("follower metrics missing %q:\n%s", want, ftext)
		}
	}

	// The follower's replica-status lines now carry stream staleness.
	cf := dial(t, f)
	status, err := cf.Stats("replica status")
	if err != nil {
		t.Fatal(err)
	}
	if age := statInt(t, status, "shard0_last_frame_age_ms"); age < 0 {
		t.Errorf("shard0_last_frame_age_ms = %d, want >= 0", age)
	}
}

// TestMetricsStressRace hammers every verb from concurrent clients while
// other goroutines scrape "stats latency" and /metrics. Run under -race it
// is the data-race gate for the whole instrumentation path; the assertions
// pin the accounting identities: mid-run scrapes parse and never go
// backwards, and at quiescence the per-verb histogram totals equal the
// command counters.
func TestMetricsStressRace(t *testing.T) {
	s := startServer(t, Config{
		MemoryBytes: 4 << 20,
		Shards:      4,
		MetricsAddr: "127.0.0.1:0",
	})

	const (
		workers = 8
		iters   = 150
	)
	var workersWg, scrapersWg sync.WaitGroup
	stop := make(chan struct{})

	// Scraper 1: stats latency over the wire, asserting monotonic counts.
	scrapersWg.Add(1)
	go func() {
		defer scrapersWg.Done()
		sc, err := kvclient.Dial(s.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer sc.Close()
		prev := map[string]int64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			lat, err := sc.Stats("stats latency")
			if err != nil {
				t.Error(err)
				return
			}
			// statInt stops the test with t.Fatalf, which only the test's
			// own goroutine may call.
			for name, v := range lat {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					t.Errorf("stats latency %s = %q, want a number >= 0", name, v)
					return
				}
				if !strings.HasSuffix(name, "_count") {
					continue
				}
				if n < prev[name] {
					t.Errorf("%s went backwards: %d -> %d", name, prev[name], n)
					return
				}
				prev[name] = n
			}
		}
	}()

	// Scraper 2: /metrics, validating the exposition format under load.
	families := goldenFamilies(t)
	scrapersWg.Add(1)
	go func() {
		defer scrapersWg.Done()
		url := "http://" + s.MetricsAddr() + "/metrics"
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Error(rerr)
				return
			}
			fams, verr := metrics.ValidateText(string(body))
			if verr != nil {
				t.Errorf("mid-run /metrics invalid: %v", verr)
				return
			}
			if err := metrics.RequireFamilies(fams, families...); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Workers: every verb, well-formed commands only (the counter/histogram
	// identity below holds only for commands both sides count).
	for w := 0; w < workers; w++ {
		workersWg.Add(1)
		go func(w int) {
			defer workersWg.Done()
			c, err := kvclient.Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%32)
				if err := c.Set(key, []byte("value"), 0, 0, 1); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Get(key); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Add(key+"-add", []byte("v"), 0, 0, 1); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Replace(key, []byte("v2"), 0, 0, 1); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Append(key, []byte("+")); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Prepend(key, []byte("-")); err != nil {
					t.Error(err)
					return
				}
				if err := c.Set(key+"-n", []byte("5"), 0, 0, 1); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Incr(key+"-n", 1); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Decr(key+"-n", 1); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Touch(key, 60); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Delete(key + "-add"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	workersWg.Wait()
	close(stop)
	scrapersWg.Wait()

	// Quiescent: histogram totals must equal the command counters.
	c := dial(t, s)
	lat, err := c.Stats("stats latency")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"get", "set", "add", "replace", "append",
		"prepend", "incr", "decr", "touch", "delete"} {
		// get: the counter counts one per multiget command, exactly as the
		// histogram does, and the scrape connection above issued none.
		if h, n := statInt(t, lat, verb+"_count"), statInt(t, stats, "cmd_"+verb); h != n {
			t.Errorf("verb %s: histogram %d != counter %d", verb, h, n)
		}
	}
	// Shard histograms partition the same commands: their counts must sum
	// to the per-verb total for shard-routed verbs.
	shardStats, err := c.Stats("stats shards")
	if err != nil {
		t.Fatal(err)
	}
	var shardOps int64
	for i := range s.shards {
		shardOps += statInt(t, shardStats, fmt.Sprintf("shard%d_ops", i))
	}
	var verbOps int64
	for _, verb := range []string{"get", "set", "add", "replace", "append",
		"prepend", "incr", "decr", "touch", "delete"} {
		verbOps += statInt(t, lat, verb+"_count")
	}
	if shardOps != verbOps {
		t.Errorf("shard ops %d != keyed-verb ops %d", shardOps, verbOps)
	}
}
