package kvserver

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestFollowerCloseWakesDial pins that stopping a follower cancels a dial to
// its primary that is still in progress. The "primary" is a listener with a
// backlog of 0 whose one queue slot is already taken, so the kernel drops
// every further SYN and the follower's dial hangs until replDialTimeout. A
// Close that only waited for the dial to end would sit out those 5 s.
func TestFollowerCloseWakesDial(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })

	f, err := New(Config{MemoryBytes: 1 << 20, Shards: 2, ReplicaOf: addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	// No shard has come back from its first dial: a dial that failed fast
	// would have left the loop in its backoff, which stop always woke.
	for i, sr := range f.repl.reps {
		sr.mu.Lock()
		n := sr.reconnects
		sr.mu.Unlock()
		if n != 0 {
			t.Fatalf("shard %d redialled %d times: the dial did not hang, the test proves nothing", i, n)
		}
	}
	start := time.Now()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 250*time.Millisecond {
		t.Fatalf("Close took %v with a dial in progress, want < 250ms", d)
	}
}
