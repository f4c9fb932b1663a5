package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"camp/internal/fault"
	"camp/internal/persist"
)

// readN reads exactly n reply bytes or fails the test.
func readN(t *testing.T, r io.Reader, n int) string {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("read %d reply bytes: %v (got %q)", n, err, buf)
	}
	return string(buf)
}

// TestPipelineNoWithheldReply pins the flush rule as "before any socket
// read", not "when the read buffer is empty": a get followed in the same
// segment by a set's command line — its payload still to come — must be
// answered before the server waits for the payload. A client that sends the
// payload only after reading the get's reply would otherwise deadlock.
func TestPipelineNoWithheldReply(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn := rawDial(t, s)
	defer conn.Close()
	if got := sendLine(t, conn, "set a 0 0 1\r\nx"); got != "STORED" {
		t.Fatalf("set a = %q", got)
	}
	if _, err := io.WriteString(conn, "get a\r\nset b 0 0 5\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	const want = "VALUE a 0 1\r\nx\r\nEND\r\n"
	if got := readN(t, conn, len(want)); got != want {
		t.Fatalf("get a = %q, want %q", got, want)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got := sendLine(t, conn, "hello"); got != "STORED" {
		t.Fatalf("set b = %q", got)
	}
}

// TestQuitDeliversPipelinedReplies: quit ends the loop without another
// socket read, so everything still staged must leave before the close.
func TestQuitDeliversPipelinedReplies(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	got := session(t, s, "set a 0 0 1\r\nx\r\nget a\r\nget nope\r\ndelete a\r\nquit\r\n")
	if want := "STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\nEND\r\nDELETED\r\n"; got != want {
		t.Fatalf("transcript = %q, want %q", got, want)
	}
}

// spyConn counts the socket reads that return bytes and the socket writes a
// connection makes, and checks, at each write, that no shard lock is held. The
// servers it is used on carry this one connection and no background work, so a
// held lock could only be the writer's own: a handler writing to the socket
// under a shard lock. With replies batched in cs.w, any handler Write can
// spill to the socket — which is why none may happen under sh.mu.
type spyConn struct {
	net.Conn
	t      *testing.T
	srv    *Server
	reads  atomic.Int64
	writes atomic.Int64
}

func (c *spyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *spyConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	for i, sh := range c.srv.shards {
		if !sh.mu.TryLock() {
			c.t.Errorf("socket write of %d bytes while shard %d's lock is held", len(p), i)
			continue
		}
		sh.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// servePipe runs serveConn over one end of a net.Pipe, wrapped by wrap, doing
// acceptLoop's bookkeeping, and returns the client's end.
func servePipe(t *testing.T, s *Server, wrap func(net.Conn) net.Conn) net.Conn {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	s.counters.currConns.Add(1)
	s.wg.Add(1)
	s.clients.Add(1)
	go s.serveConn(&countedConn{Conn: wrap(srvEnd), srv: s})
	t.Cleanup(func() { cliEnd.Close() })
	cliEnd.SetDeadline(time.Now().Add(10 * time.Second))
	return cliEnd
}

// serveSpied is servePipe with the server's end wrapped in a spyConn.
func serveSpied(t *testing.T, s *Server) (*spyConn, net.Conn) {
	t.Helper()
	spy := &spyConn{t: t, srv: s}
	cli := servePipe(t, s, func(c net.Conn) net.Conn {
		spy.Conn = c
		return spy
	})
	return spy, cli
}

// TestPipelineWriteCount is the grouping itself: commands that arrive in one
// socket read are answered with one socket write — 64 small gets, and a burst
// of sets and multigets of the keys it stores, 20–60 KiB each way, which the
// connection's buffers take in one read and answer in one write; the same gets
// sent request/response get one read and one write each, exactly as before.
func TestPipelineWriteCount(t *testing.T) {
	const n = 64
	const miss = "END\r\n"
	s := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 4})
	var gets strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&gets, "get k%02d\r\n", i)
	}
	var burst, burstReply strings.Builder
	val := strings.Repeat("v", 1000)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("b%02d", i)
		burst.WriteString(storeCmdLine("set", keys[i], 0, 0, val))
		burstReply.WriteString("STORED\r\n")
	}
	for _, multi := range [][]string{keys[:16], keys[16:]} {
		fmt.Fprintf(&burst, "get %s\r\n", strings.Join(multi, " "))
		for _, k := range multi {
			fmt.Fprintf(&burstReply, "VALUE %s 0 %d\r\n%s\r\n", k, len(val), val)
		}
		burstReply.WriteString(miss)
	}

	for _, tc := range []struct{ name, req, reply string }{
		{"64 gets", gets.String(), strings.Repeat(miss, n)},
		{"set and multiget burst", burst.String(), burstReply.String()},
	} {
		spy, cli := serveSpied(t, s)
		go io.WriteString(cli, tc.req)
		if got := readN(t, cli, len(tc.reply)); got != tc.reply {
			t.Fatalf("%s: %d reply bytes differ from the %d expected", tc.name, len(got), len(tc.reply))
		}
		if r, w := spy.reads.Load(), spy.writes.Load(); r != 1 || w != 1 {
			t.Fatalf("%s: %d request bytes in one write took %d socket reads and %d writes for %d reply bytes, want 1 and 1",
				tc.name, len(tc.req), r, w, len(tc.reply))
		}
	}

	spy, cli := serveSpied(t, s)
	for i := 0; i < n; i++ {
		go fmt.Fprintf(cli, "get k%02d\r\n", i)
		if got := readN(t, cli, len(miss)); got != miss {
			t.Fatalf("reply %d = %q", i, got)
		}
	}
	if r, w := spy.reads.Load(), spy.writes.Load(); r != n || w != n {
		t.Fatalf("%d request/response gets caused %d socket reads and %d writes, want %d each", n, r, w, n)
	}
}

// TestNoSocketWriteUnderShardLock pipelines every verb that replies — with
// replies far larger than the connection's buffer, so writes spill mid-command
// — through a spyConn, which fails the test if any socket write happens while
// a shard lock is held.
func TestNoSocketWriteUnderShardLock(t *testing.T) {
	for _, mode := range []string{ModeByte, ModeArena} {
		t.Run(mode, func(t *testing.T) {
			s := startServer(t, Config{MemoryBytes: 8 << 20, Shards: 4, Mode: mode})
			spy, cli := serveSpied(t, s)
			var script bytes.Buffer
			big := strings.Repeat("v", 3*connBufSize/2)
			for i := 0; i < 8; i++ {
				script.WriteString(storeCmdLine("set", fmt.Sprintf("k%d", i), 0, 0, big))
				script.WriteString(storeCmdLine("append", fmt.Sprintf("k%d", i), 0, 0, "tail"))
			}
			for i := 0; i < 4; i++ {
				script.WriteString("get k0 k1 k2 k3 k4 k5 k6 k7 missing\r\n")
				script.WriteString("set n 0 0 1\r\n1\r\nincr n 1\r\ntouch n 10\r\ndelete n\r\nstats\r\ndebug k0\r\n")
			}
			script.WriteString("flush_all\r\nquit\r\n")
			go cli.Write(script.Bytes())
			reply, err := io.ReadAll(cli)
			if err != nil {
				t.Fatal(err)
			}
			if min := 4 * 8 * len(big); len(reply) < min || !bytes.HasSuffix(reply, []byte("OK\r\n")) {
				t.Fatalf("reply carried %d bytes ending %q, want at least %d ending in OK", len(reply), reply[len(reply)-4:], min)
			}
			if spy.writes.Load() < 16 {
				t.Fatalf("only %d socket writes: the replies did not spill", spy.writes.Load())
			}
		})
	}
}

// TestGracefulDrainPipelinedReplies is TestGracefulDrainPipelinedNoreply for
// commands that do reply, with the client's write side left open so the drain
// ends at the grace deadline's failing socket read rather than at EOF: every
// set the server applied must have its STORED delivered before the close —
// replies staged for a later flush are not lost to the drain.
func TestGracefulDrainPipelinedReplies(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MemoryBytes: 8 << 20, Shards: 4,
		Persist: &PersistConfig{Dir: dir, Fsync: persist.FsyncEverySec, Logf: t.Logf}}
	s := startServer(t, cfg)
	conn := rawDial(t, s)
	defer conn.Close()
	if line := sendLine(t, conn, "version"); !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version = %q", line)
	}
	const n = 2000
	var pipe bytes.Buffer
	for i := 0; i < n; i++ {
		pipe.WriteString(storeCmdLine("set", fmt.Sprintf("drain:%04d", i), 7, 0, "v"))
	}
	if _, err := conn.Write(pipe.Bytes()); err != nil {
		t.Fatal(err)
	}
	errC := make(chan error, 1)
	go func() { errC <- s.Shutdown(300 * time.Millisecond) }()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read to close: %v", err)
	}
	if err := <-errC; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stored := strings.Count(string(reply), "STORED\r\n")
	if len(reply) != stored*len("STORED\r\n") {
		t.Fatalf("reply stream is not all STORED lines: %q", reply)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if applied := len(captureState(s2)); applied != stored {
		t.Fatalf("%d sets applied but %d STORED delivered", applied, stored)
	}
	if stored == 0 {
		t.Fatal("nothing was processed before the drain")
	}
}

// TestSyncRepliesAfterPipelinedReplconf: a follower that pipelines its
// topology announcement and its sync request in one segment must read REPLOK
// before the feed's first line — the feed goes out behind whatever the
// connection still owes.
func TestSyncRepliesAfterPipelinedReplconf(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, Persist: &PersistConfig{Dir: t.TempDir(), Logf: t.Logf}})
	conn := rawDial(t, s)
	defer conn.Close()
	if _, err := io.WriteString(conn, "replconf shards 1\r\nsync 0 0 0 0\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for _, want := range []string{"REPLOK 1\r\n", "FULLSYNC "} {
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, want) {
			t.Fatalf("read %q, %v; want a line starting %q", line, err, want)
		}
	}
}

// TestClientWriteDeadline bounds what a client that sends and never reads can
// hold. Behind a fault.Proxy it asks for far more reply bytes than the
// sockets between them can buffer and reads none: the server's write stalls,
// the (shortened) write deadline expires, and the connection, its goroutine
// and its staging are released — while another connection is served
// throughout. (The proxy's blackhole keeps draining the sender, so it cannot
// stall a write; the stall here is the real one, a full receive window.)
func TestClientWriteDeadline(t *testing.T) {
	s, err := New(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.writeTimeout = 200 * time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	healthy := dial(t, s)
	if err := healthy.Set("big", bytes.Repeat([]byte("x"), 1<<20), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	before := s.counters.currConns.Load()

	proxy, err := fault.NewProxy("127.0.0.1:0", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	hostile, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	if _, err := io.WriteString(hostile, strings.Repeat("get big\r\n", 256)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for seen := false; ; time.Sleep(10 * time.Millisecond) {
		cur := s.counters.currConns.Load()
		seen = seen || cur > before
		if seen && cur == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("curr_connections = %d (was %d, hostile seen: %v): the non-reading client still holds its connection", cur, before, seen)
		}
		if _, _, err := healthy.Get("big"); err != nil {
			t.Fatalf("healthy connection failed while the hostile one was stalled: %v", err)
		}
	}
}
