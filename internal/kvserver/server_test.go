package kvserver

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camp/internal/kvclient"
)

// startServer boots a server with the given config and registers cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serve(t, s)
	return s
}

// serve starts s and closes it when the test ends.
func serve(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
}

// testClock is an expiry clock (Server.now) that moves only when the test
// advances it.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// startServerWithClock is startServer with expiry read from a testClock, so
// a TTL lapses without the test sleeping through it.
func startServerWithClock(t *testing.T, cfg Config) (*Server, *testClock) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := &testClock{}
	clk.ns.Store(time.Now().UnixNano())
	s.now = clk.ns.Load
	serve(t, s)
	return s, clk
}

func dial(t *testing.T, s *Server) *kvclient.Client {
	t.Helper()
	c, err := kvclient.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// statRow returns the named row of a STAT reply (kvclient.Client.Stats). A
// row the reply lacks fails the test, so a figure asserted to be zero cannot
// pass against a row that was renamed or never sent.
func statRow(t testing.TB, m map[string]string, name string) string {
	t.Helper()
	v, ok := m[name]
	if !ok {
		t.Fatalf("the reply has no STAT %s", name)
	}
	return v
}

// statInt is statRow as an int64. A run ID uses all 64 bits unsigned, so a
// test compares it as statRow's string.
func statInt(t testing.TB, m map[string]string, name string) int64 {
	t.Helper()
	v := statRow(t, m, name)
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("STAT %s %q: %v", name, v, err)
	}
	return n
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero memory must error")
	}
	if _, err := New(Config{MemoryBytes: 1 << 20, Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy must error")
	}
	for _, mode := range []string{"bogus", "slab", "buddy"} {
		if _, err := New(Config{MemoryBytes: 1 << 20, Mode: mode}); err == nil {
			t.Fatalf("unknown mode %q must error", mode)
		}
	}
}

func TestSetGetDeleteRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{MemoryBytes: 1 << 20, Policy: "camp"},
		{MemoryBytes: 1 << 20, Policy: "lru"},
		{MemoryBytes: 1 << 20, Policy: "gds"},
		{MemoryBytes: 1 << 20, Policy: "camp", Mode: ModeArena},
	} {
		name := cfg.Policy + "/" + cfg.Mode
		t.Run(name, func(t *testing.T) {
			s := startServer(t, cfg)
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
			line, found, err := c.Debug("greeting")
			if err != nil || !found {
				t.Fatalf("Debug = %v, %v", found, err)
			}
			if !strings.Contains(line, "cost=10") || !strings.Contains(line, "flags=42") {
				t.Fatalf("Debug line = %q", line)
			}
			if ok, err := c.Delete("greeting"); err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
			if ok, err := c.Delete("greeting"); err != nil || ok {
				t.Fatalf("second Delete = %v, %v", ok, err)
			}
			if _, ok, _ := c.Get("greeting"); ok {
				t.Fatal("deleted key still readable")
			}
		})
	}
}

func TestMultiGet(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)
	for i := 0; i < 5; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.MultiGet("k0", "k2", "missing", "k4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["k0"]) != "v0" || string(got["k2"]) != "v2" || string(got["k4"]) != "v4" {
		t.Fatalf("MultiGet = %v", got)
	}
}

// TestIQCostDerivation verifies the §4 IQ behavior: the elapsed time between
// a get miss and the subsequent set becomes the key's cost.
func TestIQCostDerivation(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)
	if _, ok, err := c.Get("slow"); err != nil || ok {
		t.Fatalf("expected miss, got %v %v", ok, err)
	}
	time.Sleep(30 * time.Millisecond) // the "computation"
	if err := c.Set("slow", []byte("result"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	line, found, err := c.Debug("slow")
	if err != nil || !found {
		t.Fatal(err)
	}
	var cost int64
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "cost=") {
			fmt.Sscanf(f, "cost=%d", &cost)
		}
	}
	// ~30ms in microseconds, with generous slack for CI jitter.
	if cost < 20000 || cost > 10_000_000 {
		t.Fatalf("IQ-derived cost = %dus, want ~30000", cost)
	}
	// A set without a preceding miss gets the default cost 1.
	if err := c.Set("fast", []byte("x"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	line, _, err = c.Debug("fast")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "cost=1 ") && !strings.HasSuffix(line, "cost=1 flags=0") && !strings.Contains(line, "cost=1 flags") {
		t.Fatalf("default cost line = %q", line)
	}
}

func TestIQDisabled(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, DisableIQ: true})
	c := dial(t, s)
	c.Get("k")
	time.Sleep(10 * time.Millisecond)
	if err := c.Set("k", []byte("v"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	line, _, err := c.Debug("k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "cost=1 ") && !strings.Contains(line, "cost=1 flags") {
		t.Fatalf("cost should default to 1 with IQ off: %q", line)
	}
}

// TestCostAwareEviction shows the server preferring to keep expensive items
// under CAMP but not under LRU.
func TestCostAwareEviction(t *testing.T) {
	run := func(policy string) bool {
		cfg := Config{MemoryBytes: 4096, Policy: policy, ItemOverhead: 1}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, err := kvclient.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		if err := c.Set("gold", make([]byte, 100), 0, 0, 1_000_000); err != nil {
			t.Fatal(err)
		}
		// Cheap churn far beyond capacity.
		for i := 0; i < 200; i++ {
			if err := c.Set(fmt.Sprintf("c%d", i), make([]byte, 100), 0, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		_, ok, err := c.Get("gold")
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !run("camp") {
		t.Error("CAMP server should retain the expensive item through cheap churn")
	}
	if run("lru") {
		t.Error("LRU server should have evicted the expensive item")
	}
}

func TestTTLExpiry(t *testing.T) {
	s, clk := startServerWithClock(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)
	if err := c.Set("ephemeral", []byte("x"), 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("ephemeral"); !ok {
		t.Fatal("fresh item should be readable")
	}
	clk.advance(1100 * time.Millisecond)
	// debug honours lazy expiry as get does. It asks first: a get would
	// reclaim the item before debug could see it.
	if _, found, err := c.Debug("ephemeral"); err != nil || found {
		t.Fatalf("debug of an expired item: found=%v, %v", found, err)
	}
	if _, ok, _ := c.Get("ephemeral"); ok {
		t.Fatal("expired item should miss")
	}
}

func TestStatsAndFlush(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)
	c.Set("a", []byte("1"), 0, 0, 1)
	c.Get("a")
	c.Get("b")
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats["cmd_get"] != "2" || stats["get_hits"] != "1" || stats["get_misses"] != "1" {
		t.Fatalf("stats = %v", stats)
	}
	if stats["curr_items"] != "1" || stats["policy"] != "camp" {
		t.Fatalf("stats = %v", stats)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("a"); ok {
		t.Fatal("flush_all should empty the cache")
	}
	stats, _ = c.Stats("stats")
	if stats["curr_items"] != "0" {
		t.Fatalf("curr_items after flush = %v", stats["curr_items"])
	}
}

func TestVersionAndUnknownCommand(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	c := dial(t, s)
	v, err := c.Version()
	if err != nil || !strings.Contains(v, "camp-kvs") {
		t.Fatalf("Version = %q, %v", v, err)
	}
	// Raw connection for protocol-level checks.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "bogus command\r\n")
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); got != "ERROR\r\n" {
		t.Fatalf("unknown command response = %q", got)
	}
}

func TestMalformedSet(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	// Commands whose <bytes> field is missing or unparsable leave the stream
	// position unknowable, so the server replies and then closes, as
	// memcached does. Each needs its own connection.
	for _, cmd := range []string{
		"set onlykey\r\n",
		"set k 0 0 -3\r\n",
		"set k 0 0 notanum\r\n",
	} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(conn, cmd)
		buf := make([]byte, 128)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(buf[:n]), "CLIENT_ERROR") {
			t.Fatalf("cmd %q: response %q", cmd, buf[:n])
		}
		// The connection must now be closed: the next read reports EOF
		// rather than hanging or echoing payload-parsed-as-commands.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err == nil {
			t.Fatalf("cmd %q: connection should be closed after the error", cmd)
		}
		conn.Close()
	}
	// With a parsable <bytes>, the payload is drained and the connection
	// survives.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "set k notanum 0 5\r\nhello\r\n")
	buf := make([]byte, 128)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "CLIENT_ERROR") {
		t.Fatalf("bad-flags set: response %q", buf[:n])
	}
	fmt.Fprint(conn, "version\r\n")
	n, err = conn.Read(buf)
	if err != nil || !strings.HasPrefix(string(buf[:n]), "VERSION") {
		t.Fatalf("connection unusable after drained malformed set: %q, %v", buf[:n], err)
	}
}

// TestMalformedSetKeepsStreamSync is the protocol-desync regression: a
// malformed storage command whose payload looks like protocol must not have
// that payload parsed as commands. The drained bytes here spell "get good",
// which the old code would have executed, answering the real get twice.
func TestMalformedSetKeepsStreamSync(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprint(conn, "set good 0 0 2\r\nhi\r\n")
	if line, _ := r.ReadString('\n'); line != "STORED\r\n" {
		t.Fatalf("set good = %q", line)
	}
	// Bad flags, valid bytes=10: payload is "get good\r\n".
	fmt.Fprint(conn, "set k nope 0 10\r\nget good\r\n\r\n")
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("malformed set = %q", line)
	}
	// The very next reply must belong to this get — exactly one VALUE block.
	fmt.Fprint(conn, "get good\r\n")
	if line, _ := r.ReadString('\n'); line != "VALUE good 0 2\r\n" {
		t.Fatalf("get after malformed set = %q", line)
	}
	if line, _ := r.ReadString('\n'); line != "hi\r\n" {
		t.Fatalf("value = %q", line)
	}
	if line, _ := r.ReadString('\n'); line != "END\r\n" {
		t.Fatalf("end = %q", line)
	}
	// And the stream stays aligned for the next command.
	fmt.Fprint(conn, "version\r\n")
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version after resync = %q", line)
	}
}

// TestMalformedSetBareLFDrain pins the drain against bare-LF framing: the
// data block of a malformed set terminated with "\n" alone must be drained
// by parsing the terminator, not by assuming two CRLF bytes — a fixed +2
// would eat the first byte of the next command.
func TestMalformedSetBareLFDrain(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprint(conn, "set k nope 0 5\nhello\nversion\n")
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("malformed LF set = %q", line)
	}
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("command after LF drain = %q — the drain ate into the next command", line)
	}
}

// TestNoreplyErrorsSuppressed pins memcached's noreply contract: noreply
// suppresses the response even when the command is malformed, so a
// pipelining client never reads a stale error as the answer to its next
// command.
func TestNoreplyErrorsSuppressed(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprint(conn,
		"incr k notanum noreply\r\n"+
			"touch k soon noreply\r\n"+
			"delete a b noreply\r\n"+
			"set k nope 0 2 noreply\r\nhi\r\n"+
			"version\r\n")
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("first reply after noreply errors = %q, want VERSION", line)
	}
}

// TestLineTooLong pins the oversized-command-line behavior: the server
// reports CLIENT_ERROR line too long and closes, instead of either
// buffering without bound (the old reader) or dropping the connection with
// no explanation.
func TestLineTooLong(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "get %s\r\n", strings.Repeat("k", 10000))
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "CLIENT_ERROR line too long") {
		t.Fatalf("oversized line reply = %q, %v", line, err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("connection should close after an oversized line")
	}
}

// TestFlushPreservesLifetimeStats pins that flush_all does not zero the
// lifetime eviction counter, even though it rebuilds the policy object.
func TestFlushPreservesLifetimeStats(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 4096, Policy: "lru", ItemOverhead: 1})
	c := dial(t, s)
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), make([]byte, 100), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	before := statInt(t, stats, "evictions")
	if before == 0 {
		t.Fatal("workload should have caused evictions")
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	after := statInt(t, stats, "evictions")
	if after != before {
		t.Fatalf("evictions = %d after flush, want %d preserved", after, before)
	}
}

// TestStrictLineTerminators pins the terminator grammar: "\n" and "\r\n"
// end a line, while extra '\r' bytes are content — the old
// TrimRight("\r\n") reader accepted "foo\r\r\n" and any run of \r/\n after
// a data block as a clean chunk end.
func TestStrictLineTerminators(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})

	// Bare-LF framing works end to end.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprint(conn, "set lf 0 0 2\nok\nget lf\n")
	if line, _ := r.ReadString('\n'); line != "STORED\r\n" {
		t.Fatalf("LF set = %q", line)
	}
	if line, _ := r.ReadString('\n'); line != "VALUE lf 0 2\r\n" {
		t.Fatalf("LF get = %q", line)
	}

	// A data block terminated by "\r\r\n" is a bad chunk: the server
	// reports it and closes, rather than treating the run as clean.
	conn2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprint(conn2, "set k 0 0 3\r\nabc\r\r\n")
	buf := make([]byte, 128)
	n, err := conn2.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); !strings.HasPrefix(got, "CLIENT_ERROR bad data chunk") {
		t.Fatalf("\\r\\r\\n chunk end = %q", got)
	}
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn2.Read(buf); err == nil {
		t.Fatal("connection should close after a bad data chunk")
	}

	// A command line ending "\r\r\n" keeps its extra '\r' as content: the
	// key becomes "k\r", which simply misses — it is not silently cleaned
	// to "k".
	conn3, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	r3 := bufio.NewReader(conn3)
	fmt.Fprint(conn3, "set k 0 0 1\r\nv\r\nget k\r\r\n")
	if line, _ := r3.ReadString('\n'); line != "STORED\r\n" {
		t.Fatalf("set = %q", line)
	}
	if line, _ := r3.ReadString('\n'); line != "END\r\n" {
		t.Fatalf("get with trailing \\r should miss, got %q", line)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, MaxValueBytes: 64})
	c := dial(t, s)
	err := c.Set("big", make([]byte, 128), 0, 0, 1)
	if err == nil {
		t.Fatal("oversized value should be rejected")
	}
	// The connection must remain usable (payload drained).
	if err := c.Set("ok", []byte("x"), 0, 0, 1); err != nil {
		t.Fatalf("connection broken after oversized set: %v", err)
	}
}

func TestClientDisconnectMidCommand(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Announce a 100-byte value but hang up after 10 bytes.
	fmt.Fprintf(conn, "set k 0 0 100\r\n0123456789")
	conn.Close()
	// The server must survive; prove it with a fresh client.
	time.Sleep(20 * time.Millisecond)
	c := dial(t, s)
	if err := c.Set("alive", []byte("yes"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get("alive"); !ok || string(v) != "yes" {
		t.Fatal("server did not survive mid-command disconnect")
	}
}

func TestNoreply(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "set k 0 0 2 7 noreply\r\nhi\r\nget k\r\n")
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if strings.Contains(got, "STORED") {
		t.Fatalf("noreply set must not answer: %q", got)
	}
	if !strings.Contains(got, "VALUE k 0 2") {
		t.Fatalf("get after noreply set = %q", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, Policy: "camp"})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := kvclient.Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-k%d", id, i%20)
				if _, ok, err := c.Get(key); err != nil {
					errs <- err
					return
				} else if !ok {
					if err := c.Set(key, []byte(key), 0, 0, int64(i%100+1)); err != nil {
						errs <- err
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
}
