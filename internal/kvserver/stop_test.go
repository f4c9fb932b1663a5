package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"camp/internal/persist"
)

// TestShutdownDrainsFeedToFollower: a primary with a live follower stops
// without sitting out the feed's idle poll. Under a drain the follower ends
// with every write the primary acknowledged, including a pipeline of noreply
// sets journaled just before Shutdown; a hard stop (Close) returns cleanly at
// once.
func TestShutdownDrainsFeedToFollower(t *testing.T) {
	for _, mode := range []string{ModeByte, ModeArena} {
		for _, tc := range []struct {
			name  string
			grace time.Duration // 0: Close
		}{{"shutdown", 5 * time.Second}, {"close", 0}} {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				cfg := Config{MemoryBytes: 8 << 20, Shards: 2, Mode: mode, DisableIQ: true}
				pcfg := cfg
				pcfg.Persist = &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncEverySec, Logf: t.Logf}
				primary := startServer(t, pcfg)
				follower := startReplica(t, primary, cfg)
				waitCaughtUp(t, primary, follower)

				conn := rawDial(t, primary)
				var pipe bytes.Buffer
				for i := 0; i < 500; i++ {
					val := fmt.Sprintf("v%04d", i)
					fmt.Fprintf(&pipe, "set drain:%04d 7 0 %d %d noreply\r\n%s\r\n", i, len(val), i+1, val)
				}
				pipe.WriteString("version\r\n")
				if _, err := conn.Write(pipe.Bytes()); err != nil {
					t.Fatal(err)
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
					t.Fatalf("pipeline end = %q, %v; want VERSION", line, err)
				}
				conn.Close()
				want := captureState(primary)

				start := time.Now()
				var err error
				if tc.grace > 0 {
					err = primary.Shutdown(tc.grace)
				} else {
					err = primary.Close()
				}
				took := time.Since(start)
				if err != nil {
					t.Fatalf("stop: %v", err)
				}
				if tc.grace == 0 {
					if took >= replTailPoll/2 {
						t.Fatalf("Close with a live follower took %v; the feed's idle wait must wake on stop", took)
					}
					return
				}
				if took >= tc.grace {
					t.Fatalf("Shutdown(%v) with a live follower took %v; the drain must not wait out its grace", tc.grace, took)
				}
				// The feed flushed the tail before Shutdown returned; the
				// follower may still be applying the last frames.
				deadline := time.Now().Add(10 * time.Second)
				for len(captureState(follower)) != len(want) && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
				assertStateEqual(t, want, captureState(follower))
			})
		}
	}
}

// TestShutdownServesConnQueuedInKernel: a connection whose handshake the
// kernel finished before Shutdown began, but which the accept loop has not
// taken yet, gets its pipelined commands answered. Closing the listener at
// once reset it, and the client read "connection reset by peer".
func TestShutdownServesConnQueuedInKernel(t *testing.T) {
	s, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("set k 0 0 1\r\nv\r\nversion\r\n")); err != nil {
		t.Fatal(err)
	}
	// The accept loop starts only once the stop has begun.
	s.wg.Add(1)
	s.clients.Add(1)
	go func() {
		for {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				break
			}
			time.Sleep(time.Millisecond)
		}
		s.acceptLoop()
	}()
	replies := make(chan string, 1)
	go func() {
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(client)
		var got []string
		for len(got) < 2 {
			line, err := r.ReadString('\n')
			if err != nil {
				got = append(got, "read: "+err.Error())
				break
			}
			got = append(got, strings.TrimRight(line, "\r\n"))
		}
		client.Close()
		replies <- strings.Join(got, " | ")
	}()
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-replies; !strings.HasPrefix(got, "STORED | VERSION ") {
		t.Fatalf("client queued in the kernel before Shutdown read %q, want STORED | VERSION", got)
	}
}

// lateListener hands back its one connection only once the server is
// closed: a connection the kernel accepted before Shutdown began but the
// accept loop had not registered yet. Its second Accept blocks until Close.
type lateListener struct {
	s         *Server
	conn      net.Conn
	closeOnce sync.Once
	closed    chan struct{}
}

func (l *lateListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		for {
			l.s.connMu.Lock()
			closed := l.s.closed
			l.s.connMu.Unlock()
			if closed {
				return c, nil
			}
			time.Sleep(time.Millisecond)
		}
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *lateListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestShutdownServesConnAcceptedDuringDrain: a connection that reaches the
// accept loop after Shutdown began is served to the drain deadline, not
// closed under the client's pipelined bytes (which reads as a connection
// reset on TCP).
func TestShutdownServesConnAcceptedDuringDrain(t *testing.T) {
	s, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	s.ln = &lateListener{s: s, conn: server, closed: make(chan struct{})}
	s.wg.Add(1)
	s.clients.Add(1)
	go s.acceptLoop()

	replies := make(chan string, 1)
	go func() {
		defer client.Close()
		client.SetDeadline(time.Now().Add(10 * time.Second))
		// net.Pipe is unbuffered: the write completes as the server reads it.
		if _, err := client.Write([]byte("set k 0 0 1\r\nv\r\nversion\r\n")); err != nil {
			replies <- "write: " + err.Error()
			return
		}
		r := bufio.NewReader(client)
		var got []string
		for len(got) < 2 {
			line, err := r.ReadString('\n')
			if err != nil {
				got = append(got, "read: "+err.Error())
				break
			}
			got = append(got, strings.TrimRight(line, "\r\n"))
		}
		replies <- strings.Join(got, " | ")
	}()
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-replies; !strings.HasPrefix(got, "STORED | VERSION ") {
		t.Fatalf("client of a connection accepted during the drain read %q, want STORED | VERSION", got)
	}
}
