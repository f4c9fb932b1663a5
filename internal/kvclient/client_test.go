package kvclient

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
)

// fakeServer answers each received line with a canned response.
func fakeServer(t *testing.T, respond func(line string, w *bufio.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					respond(strings.TrimRight(line, "\r\n"), w)
					if w.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to a closed port should fail")
	}
}

func TestProtocolErrors(t *testing.T) {
	addr := fakeServer(t, func(line string, w *bufio.Writer) {
		switch {
		case strings.HasPrefix(line, "get"):
			w.WriteString("GARBAGE\r\n")
		case strings.HasPrefix(line, "delete"):
			w.WriteString("WAT\r\n")
		case strings.HasPrefix(line, "stats"):
			w.WriteString("NOT STATS LINE EXTRA WORDS\r\n")
		case strings.HasPrefix(line, "version"):
			w.WriteString("NOPE\r\n")
		case strings.HasPrefix(line, "flush_all"):
			w.WriteString("NO\r\n")
		default:
			w.WriteString("ERROR\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get("k"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Get err = %v, want ErrProtocol", err)
	}
	if _, err := c.Delete("k"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Delete err = %v, want ErrProtocol", err)
	}
	if _, err := c.Stats("stats"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Stats err = %v, want ErrProtocol", err)
	}
	if _, err := c.Version(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Version err = %v, want ErrProtocol", err)
	}
	if err := c.FlushAll(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("FlushAll err = %v, want ErrProtocol", err)
	}
}

func TestServerErrorOnSet(t *testing.T) {
	addr := fakeServer(t, func(line string, w *bufio.Writer) {
		if strings.HasPrefix(line, "set") {
			w.WriteString("SERVER_ERROR out of memory storing object\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Set("k", []byte("v"), 0, 0, 1)
	if !errors.Is(err, ErrServer) {
		t.Fatalf("Set err = %v, want ErrServer", err)
	}
}

func TestMultiGetRequiresKeys(t *testing.T) {
	addr := fakeServer(t, func(string, *bufio.Writer) {})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.MultiGet(); err == nil {
		t.Fatal("MultiGet with no keys should error")
	}
}

func TestBadValueLength(t *testing.T) {
	addr := fakeServer(t, func(line string, w *bufio.Writer) {
		if strings.HasPrefix(line, "get") {
			w.WriteString("VALUE k 0 notanumber\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get("k"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestMissingCRLFAfterValue(t *testing.T) {
	addr := fakeServer(t, func(line string, w *bufio.Writer) {
		if strings.HasPrefix(line, "get") {
			// Value bytes not followed by CRLF but by junk.
			w.WriteString("VALUE k 0 2\r\nvvXX\r\nEND\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get("k"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestMultiGetFuncBorrowedSlices(t *testing.T) {
	addr := fakeServer(t, func(line string, w *bufio.Writer) {
		if strings.HasPrefix(line, "get") {
			w.WriteString("VALUE a 7 2\r\nv1\r\nVALUE b 0 3\r\nv22\r\nEND\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type hit struct {
		key, value string
		flags      uint32
	}
	var hits []hit
	err = c.MultiGetFunc(func(key, value []byte, flags uint32) {
		// The slices are only valid during the callback; copy.
		hits = append(hits, hit{string(key), string(value), flags})
	}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	want := []hit{{"a", "v1", 7}, {"b", "v22", 0}}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hit %d = %v, want %v", i, hits[i], want[i])
		}
	}
}

func TestSetNoreplyPipelines(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	addr := fakeServer(t, func(line string, w *bufio.Writer) {
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
		// noreply sets get no response; only version answers.
		if line == "version" {
			w.WriteString("VERSION fake\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetNoreply("a", []byte("v1"), 7, 0, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNoreply("b", []byte("v2"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// A synchronous command after pipelined noreply sets proves the stream
	// stayed in sync: the next reply read belongs to version, not a set.
	v, err := c.Version()
	if err != nil || v != "fake" {
		t.Fatalf("Version after noreply pipeline = %q, %v", v, err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"set a 7 0 2 42 noreply", "v1", "set b 0 0 2 noreply", "v2", "version"}
	if len(lines) != len(want) {
		t.Fatalf("server saw %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}
