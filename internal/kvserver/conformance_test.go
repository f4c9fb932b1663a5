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
)

// layoutConfigs is one single-shard Config per storage layout, sized alike.
func layoutConfigs(mem int64) []Config {
	return []Config{
		{MemoryBytes: mem, Mode: ModeByte},
		{MemoryBytes: mem, Mode: ModeArena},
	}
}

// session pipelines script (which must end in "quit") down one connection
// and returns everything the server wrote back before closing it.
func session(t *testing.T, s *Server, script string) string {
	t.Helper()
	conn := rawDial(t, s)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	go io.WriteString(conn, script)
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return string(reply)
}

// steppedSession sends script one command at a time, reading each reply to
// its end before sending the next — the request/response client whose
// transcript a pipelined one must match byte for byte.
func steppedSession(t *testing.T, s *Server, script []string) string {
	t.Helper()
	conn := rawDial(t, s)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(conn)
	var reply strings.Builder
	for _, cmd := range script {
		if _, err := io.WriteString(conn, cmd); err != nil {
			t.Fatal(err)
		}
		head := cmd[:strings.Index(cmd, "\r\n")]
		if strings.HasSuffix(head, " noreply") || head == "quit" {
			continue
		}
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reply to %q: %v (so far %q)", head, err, reply.String())
			}
			reply.WriteString(line)
			if !strings.HasPrefix(head, "get ") || line == "END\r\n" {
				break
			}
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil || len(rest) != 0 {
		t.Fatalf("after quit: read %q, %v; want a clean close", rest, err)
	}
	return reply.String()
}

// storeCmdLine renders one storage command with its data block.
func storeCmdLine(verb, key string, flags uint32, exptime int, value string) string {
	return fmt.Sprintf("%s %s %d %d %d\r\n%s\r\n", verb, key, flags, exptime, len(value), value)
}

// TestLayoutConformance runs one scripted wire session — every storage verb,
// arithmetic, touch, delete, a multiget with a missing and a NUL-forged key,
// negative exptimes, an overwrite too large for the cache, flush_all —
// against both layouts, sized so nothing evicts. The layout decides
// where bytes live, never what the client sees: every transcript must be
// byte-identical to byte mode's. Nor does how the commands arrive: each mode
// runs the session pipelined down one Write and again one command at a time,
// and the reply streams must be the same bytes — only their grouping into
// socket writes may differ.
func TestLayoutConformance(t *testing.T) {
	const mem = 4 << 20
	script := []string{
		storeCmdLine("set", "a", 1, 0, "hello"),
		storeCmdLine("add", "a", 0, 0, "x"),
		storeCmdLine("add", "b", 2, 0, "foo"),
		storeCmdLine("replace", "c", 0, 0, "x"),
		storeCmdLine("replace", "b", 3, 0, "bar"),
		storeCmdLine("append", "a", 9, 0, " world"),
		storeCmdLine("prepend", "a", 9, 0, ">> "),
		storeCmdLine("append", "nope", 0, 0, "x"),
		"get a b c\r\n",
		storeCmdLine("set", "n", 0, 0, "10"),
		"incr n 5\r\n",
		"decr n 100\r\n",
		"incr n 18446744073709551615\r\n",
		"incr a 1\r\n",
		"incr missing 1\r\n",
		"get n\r\n",
		"touch b 100\r\n",
		"touch missing 100\r\n",
		"get b\r\n",
		"touch b -1\r\n",
		"get b\r\n",
		storeCmdLine("set", "neg", 0, -1, "x"),
		"get neg\r\n",
		storeCmdLine("add", "neg", 4, 0, "reborn"),
		"delete a\r\n",
		"delete a\r\n",
		"get n missing bad\x00key neg n\r\n",
		storeCmdLine("set", "empty", 5, 0, ""),
		"get empty\r\n",
		storeCmdLine("set", "big", 6, 0, "small"),
		storeCmdLine("set", "big", 6, 0, strings.Repeat("B", mem+1)),
		"get big\r\n",
		"set quiet 0 0 2 noreply\r\nsh\r\n",
		"get quiet\r\n",
		"flush_all\r\n",
		"get n neg empty quiet\r\n",
		storeCmdLine("set", "after", 7, 0, "z"),
		"get after\r\n",
		"quit\r\n",
	}
	var want string
	for _, cfg := range layoutConfigs(mem) {
		t.Run(cfg.Mode, func(t *testing.T) {
			s := startServer(t, cfg)
			got := session(t, s, strings.Join(script, ""))
			if stepped := steppedSession(t, startServer(t, cfg), script); stepped != got {
				t.Fatalf("pipelined and command-at-a-time transcripts differ\npipelined: %q\n  stepped: %q", got, stepped)
			}
			if cfg.Mode == ModeByte {
				want = got
				if !strings.Contains(got, "VALUE a 1 14\r\n>> hello world\r\n") ||
					!strings.Contains(got, "SERVER_ERROR out of memory") ||
					!strings.HasSuffix(got, "VALUE after 7 1\r\nz\r\nEND\r\n") {
					t.Fatalf("byte-mode transcript is not the expected session:\n%q", got)
				}
			}
			if got != want {
				t.Fatalf("transcript differs from byte mode's\n got: %q\nwant: %q", got, want)
			}
			if n := totalEvictions(s); n != 0 {
				t.Fatalf("%d evictions: the session must fit", n)
			}
			checkServer(t, s)
		})
	}
}

// TestFailedOverwriteDropsKey pins the one rule every layout must share: an
// overwrite the cache cannot hold answers out-of-memory AND drops the old
// version — which is what the journal records. Arena mode used to keep
// serving the old value while the journal deleted it, so a restart (or a
// follower) silently disagreed with the live node.
func TestFailedOverwriteDropsKey(t *testing.T) {
	for _, cfg := range layoutConfigs(1 << 20) {
		t.Run(cfg.Mode, func(t *testing.T) {
			cfg.Persist = &PersistConfig{Dir: t.TempDir()}
			s := startServer(t, cfg)
			c := dial(t, s)
			for _, k := range []string{"k", "bystander"} {
				if err := c.Set(k, []byte("small"), 1, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Set("k", bytes.Repeat([]byte("x"), 2<<20), 1, 0, 1); err == nil ||
				!strings.Contains(err.Error(), "out of memory") {
				t.Fatalf("oversize overwrite: err = %v, want out of memory", err)
			}
			if v, ok, err := c.Get("k"); err != nil || ok {
				t.Fatalf("get after failed overwrite = %q, %v, %v; want a miss", v, ok, err)
			}
			checkServer(t, s)
			live := captureState(s)
			if _, ok := live["bystander"]; !ok || len(live) != 1 {
				t.Fatalf("live state = %v, want only the bystander", live)
			}
			s.Kill()
			re, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			assertStateEqual(t, live, captureState(re))
		})
	}
}

// TestReplyStagingBounded pins the staging bound: a multiget of large values
// stages at most maxPooledScratch plus one value in cs.out, handing the rest
// to the connection's writer between keys, instead of building the whole
// reply in memory — under a retaining layout and a copying one alike.
func TestReplyStagingBounded(t *testing.T) {
	const n, size = 32, 256 << 10
	for _, mode := range []string{ModeByte, ModeArena} {
		t.Run(mode, func(t *testing.T) {
			s := startServer(t, Config{MemoryBytes: 64 << 20, Mode: mode})
			c := dial(t, s)
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("big%02d", i))
				if err := c.Set(string(keys[i]), bytes.Repeat([]byte{byte('a' + i%26)}, size), 0, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			// Drive the handler over a pipe so the test can see the
			// connection scratch it leaves behind.
			srvEnd, cliEnd := net.Pipe()
			received := make(chan int64)
			go func() {
				m, _ := io.Copy(io.Discard, cliEnd)
				received <- m
			}()
			cs := getConnState(&countedConn{Conn: srvEnd, srv: s})
			if err := s.handleGet(keys, cs); err != nil {
				t.Fatal(err)
			}
			if err := cs.w.Flush(); err != nil {
				t.Fatal(err)
			}
			srvEnd.Close()
			if got, min := <-received, int64(n*size); got < min {
				t.Fatalf("reply carried %d bytes, want at least %d", got, min)
			}
			if limit := maxPooledScratch + 2*size; cap(cs.out) > limit {
				t.Fatalf("staged %d bytes for a %d-byte reply, want at most %d", cap(cs.out), n*size, limit)
			}
			putConnState(cs)
		})
	}
}

// TestLayoutConformanceEdges drives the key and value lengths where an
// item's kv buffer changes shape — keys of 1, 127, 128 (the length prefix
// grows to two bytes) and 300 bytes, a tenant-namespaced key, and values of
// 0 and MaxValueBytes — through set, append, prepend, incr, touch, get and
// delete in both layouts. Every transcript must match byte mode's, checkStore
// must hold (each item's kv decodes to the key the index finds it under, and
// in byte mode its value is the buffer's tail), and after Kill() and
// recovery the same reads must answer the same bytes.
func TestLayoutConformanceEdges(t *testing.T) {
	const maxValue = 64 << 10
	keys := []string{"k", strings.Repeat("m", 127), strings.Repeat("n", 128), strings.Repeat("p", 300)}
	var script []string
	for _, k := range keys {
		script = append(script,
			storeCmdLine("set", k, 3, 0, "mid"),
			storeCmdLine("append", k, 0, 0, "-tail"),
			storeCmdLine("prepend", k, 0, 0, "head-"),
			"get "+k+"\r\n",
			storeCmdLine("set", k, 4, 0, "41"),
			"incr "+k+" 1\r\n",
			"touch "+k+" 1000\r\n",
			"get "+k+"\r\n",
			"delete "+k+"\r\n",
			"get "+k+"\r\n",
			storeCmdLine("set", k, 5, 0, k+"="+k),
		)
	}
	max := strings.Repeat("V", maxValue)
	script = append(script,
		storeCmdLine("set", "zero", 6, 0, ""),
		"get zero\r\n",
		storeCmdLine("append", "zero", 0, 0, ""),
		storeCmdLine("set", "max", 7, 0, max),
		storeCmdLine("append", "max", 0, 0, "x"),
		storeCmdLine("prepend", "max", 0, 0, ""),
		storeCmdLine("set", "over", 0, 0, max+"x"),
		"tenant gold\r\n",
		storeCmdLine("set", "k", 8, 0, "gold-k"),
		storeCmdLine("append", "k", 0, 0, "!"),
		storeCmdLine("set", "n", 0, 0, "9"),
		"incr n 1\r\n",
		storeCmdLine("set", "gone", 0, 0, "x"),
		"delete gone\r\n",
		"get k n gone\r\n",
		"tenant default\r\n",
	)
	reads := "get " + strings.Join(keys, " ") + " zero max over\r\ntenant gold\r\nget k n gone\r\nquit\r\n"
	script = append(script, reads)

	var want, wantReads string
	for _, cfg := range layoutConfigs(4 << 20) {
		t.Run(cfg.Mode, func(t *testing.T) {
			cfg.MaxValueBytes = maxValue
			cfg.Persist = &PersistConfig{Dir: t.TempDir()}
			s := startServer(t, cfg)
			got := session(t, s, strings.Join(script, ""))
			if cfg.Mode == ModeByte {
				want = got
				for _, frag := range []string{
					"VALUE k 3 13\r\nhead-mid-tail\r\n",
					"VALUE " + keys[2] + " 4 2\r\n42\r\n",
					"VALUE zero 6 0\r\n\r\n",
					"VALUE max 7 65536\r\n",
					"SERVER_ERROR object too large for cache",
					"VALUE k 8 7\r\ngold-k!\r\nVALUE n 0 2\r\n10\r\nEND\r\n",
				} {
					if !strings.Contains(got, frag) {
						t.Fatalf("byte-mode transcript lacks %q:\n%q", frag, got)
					}
				}
			}
			if got != want {
				t.Fatalf("transcript differs from byte mode's\n got: %q\nwant: %q", got, want)
			}
			checkServer(t, s)
			live := captureState(s)
			s.Kill()
			re := startServer(t, cfg)
			checkServer(t, re)
			assertStateEqual(t, live, captureState(re))
			afterRecovery := session(t, re, reads)
			if cfg.Mode == ModeByte {
				wantReads = afterRecovery
				if !strings.HasSuffix(want, afterRecovery) {
					t.Fatalf("reads after recovery differ from before\n got: %q\nwant the tail of: %q", afterRecovery, want)
				}
			}
			if afterRecovery != wantReads {
				t.Fatalf("reads after recovery differ from byte mode's\n got: %q\nwant: %q", afterRecovery, wantReads)
			}
		})
	}
}
