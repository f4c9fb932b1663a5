package kvserver

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"camp/internal/kvclient"
)

// dialRaw connects without test-scoped cleanup, for goroutine use.
func dialRaw(s *Server) (*kvclient.Client, error) {
	return kvclient.Dial(s.Addr())
}

func TestAddReplace(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)

	// replace on a missing key fails; add succeeds.
	if ok, err := c.Replace("k", []byte("v0"), 0, 0, 1); err != nil || ok {
		t.Fatalf("Replace(missing) = %v, %v", ok, err)
	}
	if ok, err := c.Add("k", []byte("v1"), 7, 0, 1); err != nil || !ok {
		t.Fatalf("Add(missing) = %v, %v", ok, err)
	}
	// add on an existing key fails; replace succeeds.
	if ok, err := c.Add("k", []byte("v2"), 0, 0, 1); err != nil || ok {
		t.Fatalf("Add(existing) = %v, %v", ok, err)
	}
	if ok, err := c.Replace("k", []byte("v3"), 0, 0, 1); err != nil || !ok {
		t.Fatalf("Replace(existing) = %v, %v", ok, err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v3" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
}

func TestAppendPrepend(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)

	if ok, err := c.Append("k", []byte("x")); err != nil || ok {
		t.Fatalf("Append(missing) = %v, %v", ok, err)
	}
	if err := c.Set("k", []byte("mid"), 9, 0, 42); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Append("k", []byte("-end")); err != nil || !ok {
		t.Fatalf("Append = %v, %v", ok, err)
	}
	if ok, err := c.Prepend("k", []byte("start-")); err != nil || !ok {
		t.Fatalf("Prepend = %v, %v", ok, err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "start-mid-end" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	// Flags and cost survive concatenation.
	line, _, err := c.Debug("k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "cost=42") || !strings.Contains(line, "flags=9") {
		t.Fatalf("metadata lost on append/prepend: %q", line)
	}
}

func TestIncrDecr(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)

	if _, ok, err := c.Incr("counter", 1); err != nil || ok {
		t.Fatalf("Incr(missing) = %v, %v", ok, err)
	}
	if err := c.Set("counter", []byte("10"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Incr("counter", 5); err != nil || !ok || v != 15 {
		t.Fatalf("Incr = %d, %v, %v", v, ok, err)
	}
	if v, ok, err := c.Decr("counter", 3); err != nil || !ok || v != 12 {
		t.Fatalf("Decr = %d, %v, %v", v, ok, err)
	}
	// decr clamps at zero.
	if v, _, err := c.Decr("counter", 100); err != nil || v != 0 {
		t.Fatalf("Decr(clamp) = %d, %v", v, err)
	}
	// Non-numeric values are rejected.
	c.Set("text", []byte("hello"), 0, 0, 1)
	if _, _, err := c.Incr("text", 1); err == nil {
		t.Fatal("Incr on non-numeric value should error")
	}
}

func TestTouch(t *testing.T) {
	s, clk := startServerWithClock(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)

	if ok, err := c.Touch("k", 100); err != nil || ok {
		t.Fatalf("Touch(missing) = %v, %v", ok, err)
	}
	if err := c.Set("k", []byte("v"), 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Extend the 1s TTL before it fires.
	if ok, err := c.Touch("k", 60); err != nil || !ok {
		t.Fatalf("Touch = %v, %v", ok, err)
	}
	clk.advance(1200 * time.Millisecond)
	if _, ok, _ := c.Get("k"); !ok {
		t.Fatal("touched key should have outlived its original TTL")
	}
	// Touch with ttl 0 clears the expiry.
	if ok, err := c.Touch("k", 0); err != nil || !ok {
		t.Fatalf("Touch(0) = %v, %v", ok, err)
	}
}

func TestArithMalformed(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, cmd := range []string{
		"incr onlykey\r\n",
		"incr k notanumber\r\n",
		"decr k -5\r\n",
		"touch k\r\n",
		"touch k soon\r\n",
	} {
		fmt.Fprint(conn, cmd)
		buf := make([]byte, 128)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(buf[:n]), "CLIENT_ERROR") {
			t.Fatalf("cmd %q: response %q", cmd, buf[:n])
		}
	}
}

// TestCmdGetCountsCommands pins memcached's stats semantics: a multiget is
// ONE cmd_get no matter how many keys it names, while get_hits/get_misses
// stay per-key. The old code bumped cmd_get once per key.
func TestCmdGetCountsCommands(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)
	for _, k := range []string{"a", "b", "c"} {
		if err := c.Set(k, []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MultiGet("a", "b", "c", "miss1", "miss2"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats["cmd_get"] != "1" {
		t.Fatalf("cmd_get = %s after one 5-key multiget, want 1", stats["cmd_get"])
	}
	if stats["get_hits"] != "3" || stats["get_misses"] != "2" {
		t.Fatalf("hits/misses = %s/%s, want 3/2", stats["get_hits"], stats["get_misses"])
	}
	// A second command increments it again.
	if _, _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	stats, _ = c.Stats("stats")
	if stats["cmd_get"] != "2" {
		t.Fatalf("cmd_get = %s after two get commands, want 2", stats["cmd_get"])
	}
}

// TestExpiredItemsReclaimed proves expired-but-untouched items stop counting
// against capacity: the incremental sweep each mutation runs reclaims them
// without any access, so curr_items/bytes fall back to the live set and the
// expired_reclaimed stat accounts for every one.
func TestExpiredItemsReclaimed(t *testing.T) {
	s, clk := startServerWithClock(t, Config{MemoryBytes: 1 << 20, Shards: 1, DisableIQ: true})
	c := dial(t, s)
	const expiring = 50
	for i := 0; i < expiring; i++ {
		if err := c.Set(fmt.Sprintf("dead%d", i), []byte("xxxxxxxx"), 0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set("live", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	clk.advance(1100 * time.Millisecond)
	// Only mutations from here on — never touch the dead keys. Each set
	// probes a few random items, so repeated writes to one key drain the
	// whole expired population.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Set("churn", []byte("w"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		stats, err := c.Stats("stats")
		if err != nil {
			t.Fatal(err)
		}
		if stats["curr_items"] == "2" { // "live" + "churn": every expired item gone
			if stats["evictions"] != "0" {
				t.Fatalf("expired items were evicted (%s), not reclaimed", stats["evictions"])
			}
			if reclaimed := statInt(t, stats, "expired_reclaimed"); reclaimed < expiring {
				t.Fatalf("expired_reclaimed = %d, want >= %d", reclaimed, expiring)
			}
			return
		}
		if time.Now().After(deadline) {
			stats, _ := c.Stats("stats")
			t.Fatalf("sweep never reclaimed the expired set: curr_items=%s expired_reclaimed=%s",
				stats["curr_items"], stats["expired_reclaimed"])
		}
	}
}

// TestMissTableFullAdmitsFresh pins the incremental IQ miss-table expiry: a
// table full of stale entries admits a fresh miss by probing out a bounded
// handful of them, instead of either a full 64k sweep or dropping the miss.
func TestMissTableFullAdmitsFresh(t *testing.T) {
	s, err := New(Config{MemoryBytes: 1 << 20, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	now := time.Now().UnixNano()
	stale := now - 2*int64(missTableTTL)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := 0; len(sh.missedAt) < missTableMax; i++ {
		sh.missedAt[fmt.Sprintf("old%d", i)] = stale
	}
	sh.recordMissLocked("fresh", now)
	if _, ok := sh.missedAt["fresh"]; !ok {
		t.Fatal("fresh miss dropped by a table full of stale entries")
	}
	// Bounded work: at most missTableProbes stale entries were expired.
	if got := len(sh.missedAt); got < missTableMax-missTableProbes+1 {
		t.Fatalf("table shrank to %d — a full sweep ran instead of bounded probes", got)
	}
	// A table full of RECENT misses still drops the newcomer.
	for k := range sh.missedAt {
		sh.missedAt[k] = now
	}
	for i := 0; len(sh.missedAt) < missTableMax; i++ {
		sh.missedAt[fmt.Sprintf("pad%d", i)] = now
	}
	before := len(sh.missedAt)
	sh.recordMissLocked("dropped", now)
	if _, ok := sh.missedAt["dropped"]; ok {
		t.Fatal("a table full of recent misses should drop new ones")
	}
	if len(sh.missedAt) != before {
		t.Fatalf("recent entries were expired: %d -> %d", before, len(sh.missedAt))
	}
}

func TestFlushAllModes(t *testing.T) {
	for _, cfg := range []Config{
		{MemoryBytes: 1 << 20, Policy: "camp"},
		{MemoryBytes: 1 << 20, Policy: "camp", Mode: ModeArena},
	} {
		name := cfg.Policy + "/" + cfg.Mode
		t.Run(name, func(t *testing.T) {
			s := startServer(t, cfg)
			c := dial(t, s)
			for i := 0; i < 20; i++ {
				if err := c.Set(fmt.Sprintf("k%d", i), []byte("v"), 0, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			stats, err := c.Stats("stats")
			if err != nil {
				t.Fatal(err)
			}
			if stats["curr_items"] != "0" {
				t.Fatalf("curr_items = %s after flush", stats["curr_items"])
			}
			// The server is fully usable after a flush.
			if err := c.Set("again", []byte("v"), 0, 0, 1); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := c.Get("again"); !ok {
				t.Fatal("server broken after flush")
			}
		})
	}
}

func TestAddRacesOnlyOneWinner(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	const clients = 8
	wins := make(chan bool, clients)
	for i := 0; i < clients; i++ {
		go func(id int) {
			c, err := dialRaw(s)
			if err != nil {
				wins <- false
				return
			}
			defer c.Close()
			ok, err := c.Add("lock", []byte(fmt.Sprint(id)), 0, 0, 1)
			wins <- err == nil && ok
		}(i)
	}
	winners := 0
	for i := 0; i < clients; i++ {
		if <-wins {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("add should have exactly one winner, got %d", winners)
	}
}
