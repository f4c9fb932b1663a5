package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"camp/internal/persist"
)

// TestConnPanicRecovery pins the blast radius of a handler panic: the
// panicking connection dies, the panic is counted, and every other
// connection — and the server — keeps serving.
func TestConnPanicRecovery(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	s.testHookCmd = func(toks [][]byte) {
		if len(toks) >= 2 && string(toks[1]) == "boom" {
			panic("injected handler panic")
		}
	}

	healthy := rawDial(t, s)
	defer healthy.Close()
	if got := sendLine(t, healthy, "version"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("probe reply = %q", got)
	}

	victim := rawDial(t, s)
	defer victim.Close()
	if _, err := fmt.Fprintf(victim, "get boom\r\n"); err != nil {
		t.Fatal(err)
	}
	victim.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(victim).ReadString('\n'); err == nil {
		t.Fatal("panicking connection returned a reply; want close")
	}

	// The healthy connection still round-trips, on the same server.
	if got := sendLine(t, healthy, "version"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("post-panic version reply = %q", got)
	}
	if got := s.counters.connPanics.Load(); got != 1 {
		t.Fatalf("conn_panics = %d, want 1", got)
	}

	// And brand-new connections are accepted.
	fresh := rawDial(t, s)
	defer fresh.Close()
	if got := sendLine(t, fresh, "version"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("fresh-conn version reply = %q", got)
	}
}

// TestMaxConnsAcceptLimit exercises the -max-conns accept cap: connections
// over the limit are refused and counted, and closing an admitted
// connection frees its slot.
func TestMaxConnsAcceptLimit(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, MaxConns: 2})

	// Admit two connections, round-tripping each so the accept loop has
	// registered it before the next dial.
	c1 := rawDial(t, s)
	defer c1.Close()
	sendLine(t, c1, "version")
	c2 := rawDial(t, s)
	defer c2.Close()
	sendLine(t, c2, "version")

	// The third is accepted by the kernel but refused by the server: it is
	// closed before any command is served.
	c3 := rawDial(t, s)
	defer c3.Close()
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(c3, "version\r\n"); err == nil {
		if _, err := bufio.NewReader(c3).ReadString('\n'); err == nil {
			t.Fatal("over-limit connection was served; want refusal")
		}
	}
	if got := s.counters.acceptRejected.Load(); got == 0 {
		t.Fatal("accept_rejected_maxconns = 0, want > 0")
	}

	// Closing an admitted connection frees its slot; a new dial is served
	// once the handler's cleanup has run (poll: the decrement is
	// asynchronous, and rejected dials back the accept loop off briefly).
	c1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c4, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c4.SetReadDeadline(time.Now().Add(time.Second))
		fmt.Fprintf(c4, "version\r\n")
		line, err := bufio.NewReader(c4).ReadString('\n')
		c4.Close()
		if err == nil && strings.HasPrefix(line, "VERSION") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("freed connection slot never became usable")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrainPipelinedNoreply is the drain regression: a client
// pipelines a burst of noreply writes, the server is told to shut down
// (the SIGTERM path) while they are in flight, and every one of them must
// be processed, acknowledged where a reply was due, durable on disk after
// the final flush — and the connection must close cleanly, with Shutdown
// returning nil (campsrv exit code 0).
func TestGracefulDrainPipelinedNoreply(t *testing.T) {
	dir := t.TempDir()
	pcfg := func() *PersistConfig {
		return &PersistConfig{Dir: dir, Fsync: persist.FsyncEverySec, Logf: t.Logf}
	}
	cfg := Config{MemoryBytes: 8 << 20, Shards: 4, Persist: pcfg()}
	s := startServer(t, cfg)

	conn := rawDial(t, s)
	defer conn.Close()
	// One round trip first: the drain covers connections the server has
	// admitted, and a dial returns as soon as the kernel has queued the
	// connection — before the accept loop may have seen it.
	if line := sendLine(t, conn, "version"); !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version = %q", line)
	}

	const n = 2000
	var pipe bytes.Buffer
	for i := 0; i < n; i++ {
		val := fmt.Sprintf("v%04d", i)
		fmt.Fprintf(&pipe, "set drain:%04d 7 0 %d noreply\r\n%s\r\n", i, len(val), val)
	}
	// A final replied command marks the end of the pipeline: its reply
	// proves every preceding noreply write was dispatched.
	pipe.WriteString("version\r\n")
	if _, err := conn.Write(pipe.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Shut down while the pipeline is in flight. The drain must let the
	// handler finish everything the client already sent. Half-closing the
	// write side afterwards tells the server this client is done, so the
	// drain finishes as soon as the pipeline does instead of waiting out
	// the whole grace window.
	errC := make(chan error, 1)
	go func() { errC <- s.Shutdown(5 * time.Second) }()
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("trailing reply = %q, %v; want VERSION", line, err)
	}
	// ...and then a clean close, not a reset.
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("post-drain read = %v, want EOF", err)
	}
	if err := <-errC; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Every pipelined write survived the restart.
	s2, err := New(Config{MemoryBytes: 8 << 20, Shards: 4, Persist: pcfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	state := captureState(s2)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("drain:%04d", i)
		it, ok := state[key]
		if !ok {
			t.Fatalf("key %q lost across graceful drain", key)
		}
		if want := fmt.Sprintf("v%04d", i); it.value != want || it.flags != 7 {
			t.Fatalf("key %q = %+v, want value %q flags 7", key, it, want)
		}
	}
}

// TestShutdownIdempotent pins that Shutdown twice — and Close after
// Shutdown — are no-ops, the contract campsrv's signal path relies on.
func TestShutdownIdempotent(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}
