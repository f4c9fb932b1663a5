// Server spins up an in-process IQ-mode KVS (the §4 implementation), talks
// to it over real TCP with the bundled client, and shows the server deriving
// key costs from miss-to-set latency — no application changes needed.
package main

import (
	"fmt"
	"log"
	"time"

	"camp/internal/kvclient"
	"camp/internal/kvserver"
)

func main() {
	srv, err := kvserver.New(kvserver.Config{
		MemoryBytes: 1 << 20,
		Policy:      "camp",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("server listening on", srv.Addr())

	cli, err := kvclient.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	// The IQ pattern: a get miss starts the clock; computing the value
	// takes time; the set stops the clock and becomes the key's cost.
	if _, ok, err := cli.Get("report:q3"); err != nil {
		log.Fatal(err)
	} else if ok {
		log.Fatal("unexpected hit on an empty cache")
	}

	fmt.Println("cache miss -> computing the quarterly report (simulated 120ms)...")
	time.Sleep(120 * time.Millisecond)

	if err := cli.Set("report:q3", []byte("42 pages of numbers"), 0, 0, 0); err != nil {
		log.Fatal(err)
	}

	line, ok, err := cli.Debug("report:q3")
	if err != nil || !ok {
		log.Fatal("debug failed: ", err)
	}
	fmt.Println("server-derived metadata:", line)

	// Cheap values set immediately get the default cost of 1, so under
	// pressure the report outlives them.
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("tmp:%d", i)
		if err := cli.Set(key, make([]byte, 400), 0, 0, 0); err != nil {
			log.Fatal(err)
		}
	}
	if _, ok, _ := cli.Get("report:q3"); ok {
		fmt.Println("after 2000 cheap inserts the expensive report is still cached")
	}

	stats, err := cli.Stats("stats")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server stats: items=%s bytes=%s evictions=%s policy=%s\n",
		stats["curr_items"], stats["bytes"], stats["evictions"], stats["policy"])
}
