package kvserver

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"camp/internal/fault"
	"camp/internal/persist"
)

// eventLog is one ordered record of what left the process and how: journal
// writes and syncs seen at the FS seam, socket writes seen at the connection.
type eventLog struct {
	mu sync.Mutex
	ev []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.ev = append(l.ev, e)
	l.mu.Unlock()
}

// take returns the events so far and starts a fresh log.
func (l *eventLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := l.ev
	l.ev = nil
	return ev
}

func countEvents(ev []string, want string) (n int) {
	for _, e := range ev {
		if e == want {
			n++
		}
	}
	return n
}

// logFS is the real filesystem with every journal-segment Write and Sync
// entered in an eventLog.
type logFS struct {
	fault.FS
	log *eventLog
}

type logFile struct {
	fault.File
	log *eventLog
}

func (fs logFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.Contains(name, "aof-") {
		return f, err
	}
	return logFile{f, fs.log}, nil
}

func (f logFile) Write(p []byte) (int, error) {
	f.log.add("journal")
	return f.File.Write(p)
}

func (f logFile) Sync() error {
	f.log.add("sync")
	return f.File.Sync()
}

// logConn enters every socket write in the log under its name.
type logConn struct {
	net.Conn
	log  *eventLog
	name string
}

func (c logConn) Write(p []byte) (int, error) {
	c.log.add(c.name)
	return c.Conn.Write(p)
}

// serveLogged is servePipe with the server's socket writes logged as name.
func serveLogged(t *testing.T, s *Server, log *eventLog, name string) net.Conn {
	t.Helper()
	return servePipe(t, s, func(c net.Conn) net.Conn { return logConn{c, log, name} })
}

func loggedServer(t *testing.T, fsync string, shards int) (*Server, *eventLog) {
	t.Helper()
	log := &eventLog{}
	s := startServer(t, Config{MemoryBytes: 8 << 20, Shards: shards, Persist: &PersistConfig{
		Dir: t.TempDir(), Fsync: fsync, FS: logFS{fault.OS(), log}, Logf: t.Logf}})
	log.take() // segment headers
	return s, log
}

// TestJournalWriteCount is TestPipelineWriteCount's twin for the journal:
// replying sets that arrive in one socket read cost at most one journal write
// per shard (one fsync each under always); sent one at a time they cost one
// write each, exactly as before.
func TestJournalWriteCount(t *testing.T) {
	const n, shards = 64, 4
	const stored = "STORED\r\n"
	for _, fsync := range []string{persist.FsyncEverySec, persist.FsyncAlways} {
		t.Run(fsync, func(t *testing.T) {
			s, log := loggedServer(t, fsync, shards)
			var pipelined strings.Builder
			for i := 0; i < n; i++ {
				pipelined.WriteString(storeCmdLine("set", fmt.Sprintf("k%02d", i), 0, 0, "v"))
			}
			cli := serveLogged(t, s, log, "socket")
			go io.WriteString(cli, pipelined.String())
			if got := readN(t, cli, n*len(stored)); got != strings.Repeat(stored, n) {
				t.Fatalf("pipelined replies = %q", got)
			}
			ev := log.take()
			if w := countEvents(ev, "journal"); w < 1 || w > shards {
				t.Fatalf("%d pipelined sets in one read caused %d journal writes over %d shards: %v", n, w, shards, ev)
			}
			if fsync == persist.FsyncAlways && countEvents(ev, "sync") != countEvents(ev, "journal") {
				t.Fatalf("always: journal writes and syncs do not pair up: %v", ev)
			}

			for i := 0; i < n; i++ {
				go io.WriteString(cli, storeCmdLine("set", fmt.Sprintf("k%02d", i), 0, 0, "w"))
				if got := readN(t, cli, len(stored)); got != stored {
					t.Fatalf("reply %d = %q", i, got)
				}
			}
			if w := countEvents(log.take(), "journal"); w != n {
				t.Fatalf("%d request/response sets caused %d journal writes, want %d", n, w, n)
			}
		})
	}
}

// assertJournalThenSocket fails unless the log is one or more journal events
// (writes, and syncs under always) followed only by writes to the named
// sockets: no byte left before the records it depends on.
func assertJournalThenSocket(t *testing.T, what string, ev []string, sockets ...string) {
	t.Helper()
	i := 0
	for i < len(ev) && (ev[i] == "journal" || ev[i] == "sync") {
		i++
	}
	if i == 0 || countEvents(ev[:i], "journal") == 0 {
		t.Fatalf("%s: a socket write came before any journal write: %v", what, ev)
	}
	if i == len(ev) {
		t.Fatalf("%s: no socket write at all: %v", what, ev)
	}
	for _, e := range ev[i:] {
		if !slices.Contains(sockets, e) {
			t.Fatalf("%s: %q after the first socket write: %v", what, e, ev)
		}
	}
}

// TestNoByteLeavesBeforeJournalWrite reads one ordered log across the FS seam
// and the sockets: in a plain pipeline, in a pipeline whose large reply spills
// the connection's buffer before the next read, and across two connections —
// B is shown what A's still-unacknowledged noreply set stored — the journal
// write always precedes the socket write that makes the mutation visible.
func TestNoByteLeavesBeforeJournalWrite(t *testing.T) {
	for _, fsync := range []string{persist.FsyncEverySec, persist.FsyncAlways} {
		t.Run(fsync, func(t *testing.T) {
			s, log := loggedServer(t, fsync, 2)
			a := serveLogged(t, s, log, "socket:A")

			var pipe strings.Builder
			for i := 0; i < 16; i++ {
				pipe.WriteString(storeCmdLine("set", fmt.Sprintf("p%02d", i), 0, 0, "v"))
			}
			go io.WriteString(a, pipe.String())
			readN(t, a, 16*len("STORED\r\n"))
			assertJournalThenSocket(t, "plain pipeline", log.take(), "socket:A")

			big := strings.Repeat("B", connBufSize+connBufSize/4) // its VALUE reply cannot fit the connection's buffer
			go io.WriteString(a, storeCmdLine("set", "big", 0, 0, big))
			readN(t, a, len("STORED\r\n"))
			log.take()
			pipe.Reset()
			pipe.WriteString("get nothing\r\n") // something staged ahead of the large reply
			for i := 0; i < 4; i++ {
				pipe.WriteString(fmt.Sprintf("set n%d 0 0 1 noreply\r\nx\r\n", i))
			}
			pipe.WriteString("get big\r\n")
			go io.WriteString(a, pipe.String())
			want := fmt.Sprintf("END\r\nVALUE big 0 %d\r\n%s\r\nEND\r\n", len(big), big)
			if got := readN(t, a, len(want)); got != want {
				t.Fatalf("get big returned %d bytes", len(got))
			}
			ev := log.take()
			assertJournalThenSocket(t, "spilled reply", ev, "socket:A")
			if countEvents(ev, "socket:A") < 2 {
				t.Fatalf("the %d-byte reply did not spill: %v", len(big), ev)
			}

			// B is connected and waiting in its socket read. A's noreply set is
			// applied and buffered; A is then held inside its next command, so
			// it cannot flush. B reads the key.
			b := serveLogged(t, s, log, "socket:B")
			go io.WriteString(b, "version\r\n")
			readN(t, b, len(replyVersion))
			log.take()
			held, release := make(chan struct{}), make(chan struct{})
			s.testHookCmd = func(toks [][]byte) {
				if len(toks) == 2 && string(toks[1]) == "hold" {
					close(held)
					<-release
				}
			}
			go io.WriteString(a, "set shared 0 0 2 noreply\r\nab\r\nget hold\r\n")
			<-held
			if ev := log.take(); len(ev) != 0 {
				t.Fatalf("a noreply set reached the journal before anything depended on it: %v", ev)
			}
			go io.WriteString(b, "get shared\r\n")
			want = "VALUE shared 0 2\r\nab\r\nEND\r\n"
			if got := readN(t, b, len(want)); got != want {
				t.Fatalf("B read %q", got)
			}
			close(release)
			readN(t, a, len("END\r\n"))
			assertJournalThenSocket(t, "cross-connection", log.take(), "socket:B", "socket:A")
		})
	}
}

// TestAcknowledgedSurvivesKill cuts the journals off mid-pipeline, the way a
// SIGKILL would: every STORED the client had read by then is recovered, under
// everysec and under always. The sets whose replies were still staged may be
// lost — nobody was told about them.
func TestAcknowledgedSurvivesKill(t *testing.T) {
	for _, fsync := range []string{persist.FsyncEverySec, persist.FsyncAlways} {
		t.Run(fsync, func(t *testing.T) {
			cfg := Config{MemoryBytes: 8 << 20, Shards: 4,
				Persist: &PersistConfig{Dir: t.TempDir(), Fsync: fsync, Logf: t.Logf}}
			s := startServer(t, cfg)
			held, release := make(chan struct{}), make(chan struct{})
			s.testHookCmd = func(toks [][]byte) {
				if len(toks) == 2 && string(toks[1]) == "hold" {
					close(held)
					<-release
				}
			}
			conn := rawDial(t, s)
			defer conn.Close()
			const n = 3000
			var pipe bytes.Buffer
			for i := 0; i < n; i++ {
				pipe.WriteString(storeCmdLine("set", fmt.Sprintf("ack:%04d", i), 0, 0, "value"))
			}
			pipe.WriteString("get hold\r\n")
			go conn.Write(pipe.Bytes())

			// Everything the server sends before it blocks in "get hold".
			var reply []byte
			buf := make([]byte, 64<<10)
			<-held
			for {
				conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				m, err := conn.Read(buf)
				reply = append(reply, buf[:m]...)
				if err != nil {
					break
				}
			}
			acked := bytes.Count(reply, []byte("STORED\r\n"))
			if acked == 0 || acked >= n {
				t.Fatalf("%d of %d sets acknowledged at the cut: the pipeline was not cut mid-way", acked, n)
			}
			for _, sh := range s.shards {
				sh.mgr.Kill() // the process dies here: buffered records are gone
			}
			close(release)
			s.Close()

			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			state := captureState(s2)
			for i := 0; i < acked; i++ {
				if it, ok := state[fmt.Sprintf("ack:%04d", i)]; !ok || it.value != "value" {
					t.Fatalf("set %d of %d acknowledged was not recovered (%d keys recovered)", i, acked, len(state))
				}
			}
		})
	}
}

// TestDeferredJournalWriteFailure: the write a buffered record was waiting
// for fails at the flush point. The shard degrades and counts the error, the
// client is still served; on a follower the position the lost records had
// advanced is cleared, so a restart resyncs instead of resuming past the gap.
func TestDeferredJournalWriteFailure(t *testing.T) {
	pcfg := func(fs fault.FS, logf func(string, ...any)) *PersistConfig {
		return &PersistConfig{Dir: t.TempDir(), FS: fs, Logf: logf,
			ProbeMin: time.Hour, ProbeMax: time.Hour} // no healing during the test
	}
	t.Run("primary", func(t *testing.T) {
		inj := fault.NewInjector(nil, 1)
		var mu sync.Mutex
		var logged []string
		s := startServer(t, Config{MemoryBytes: 1 << 20, Persist: pcfg(inj, func(f string, a ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(f, a...))
			mu.Unlock()
		})})
		c := dial(t, s)
		if err := c.Set("before", []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		inj.Fail(fault.Rule{Op: fault.OpWrite, PathContains: "aof-", Err: fault.ErrNoSpace})
		if err := c.Set("during", []byte("v"), 0, 0, 1); err != nil {
			t.Fatalf("a set whose journal write failed must still be served: %v", err)
		}
		if !s.shards[0].degraded.Load() || s.counters.persistErrors.Load() == 0 {
			t.Fatalf("degraded=%v persist_errors=%d after a failed flush", s.shards[0].degraded.Load(), s.counters.persistErrors.Load())
		}
		mu.Lock()
		if all := strings.Join(logged, "\n"); !strings.Contains(all, "journal flush") {
			t.Fatalf("the failure was not reported as a journal flush:\n%s", all)
		}
		mu.Unlock()
		for _, k := range []string{"before", "during"} {
			if v, ok, err := c.Get(k); err != nil || !ok || string(v) != "v" {
				t.Fatalf("degraded get %s = %q, %v, %v", k, v, ok, err)
			}
		}
		if err := c.Set("after", []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("follower", func(t *testing.T) {
		primary := startServer(t, Config{MemoryBytes: 1 << 20, Persist: pcfg(nil, t.Logf)})
		inj := fault.NewInjector(nil, 1)
		follower := startReplica(t, primary, Config{MemoryBytes: 1 << 20, Persist: pcfg(inj, t.Logf)})
		c := dial(t, primary)
		if err := c.Set("before", []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		waitCaughtUp(t, primary, follower)
		sh := follower.shards[0]
		sh.mu.Lock()
		pos := sh.replPos
		sh.mu.Unlock()
		if pos.RunID == 0 {
			t.Fatal("a caught-up follower holds no position")
		}
		inj.Fail(fault.Rule{Op: fault.OpWrite, PathContains: "aof-"})
		if err := c.Set("during", []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		waitDegraded(t, follower, 1, 5*time.Second)
		waitCaughtUp(t, primary, follower) // cache-only, the stream still applies
		sh.mu.Lock()
		pos, diverged := sh.replPos, sh.replDiverged
		sh.mu.Unlock()
		if pos.RunID != 0 || !diverged {
			t.Fatalf("after a failed flush the follower still reports position %+v (diverged=%v)", pos, diverged)
		}
		if follower.counters.persistErrors.Load() == 0 {
			t.Fatal("persist_errors = 0 on the follower")
		}
		fc := dial(t, follower)
		if v, ok, err := fc.Get("during"); err != nil || !ok || string(v) != "v" {
			t.Fatalf("degraded follower get = %q, %v, %v", v, ok, err)
		}
	})
}
