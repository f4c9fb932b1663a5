// Persistent boots an AOF-backed KVS, warms it with a skewed workload of
// costed entries, kills the server without any graceful shutdown, restarts
// it from the same data directory, and shows the warm restart serving the
// same hit rate — working set and learned per-key costs intact. Without
// persistence every restart would pay the full cost-miss penalty again.
package main

import (
	"fmt"
	"log"
	"os"

	"camp/internal/kvclient"
	"camp/internal/kvserver"
	"camp/internal/persist"
	"camp/internal/trace"
)

func main() {
	dir, err := os.MkdirTemp("", "campsrv-demo-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("data dir:", dir)

	cfg := kvserver.Config{
		MemoryBytes: 256 << 10, // small on purpose: CAMP must choose what to keep
		Policy:      "camp",
		DisableIQ:   true, // costs are passed explicitly below
		Persist: &kvserver.PersistConfig{
			Dir:   dir,
			Fsync: persist.FsyncAlways, // crash-proof acks for the demo
			Logf:  log.Printf,
		},
	}

	srv, err := kvserver.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}

	// Warm the cache: a hotspot workload where cost spans four orders of
	// magnitude, so eviction decisions genuinely depend on the learned
	// costs the journal must preserve.
	genCfg := trace.Config{
		Keys:     4000,
		Requests: 8000,
		Seed:     1,
		Size:     trace.SizeUniform(80, 200),
		Cost:     trace.CostChoice(1, 100, 10000),
	}
	cli := dial(srv)
	g := trace.NewGenerator(genCfg)
	for {
		req, ok := g.Next()
		if !ok {
			break
		}
		if err := cli.Set(req.Key, make([]byte, req.Size), 0, 0, req.Cost); err != nil {
			log.Fatal(err)
		}
	}
	before := hitRate(cli, genCfg)
	fmt.Printf("warm hit rate before kill: %.1f%%\n", 100*before)

	// Kill it: close the TCP side and abandon the server. No shutdown
	// snapshot, no journal flush beyond what each acknowledged set already
	// forced to disk.
	cli.Close()
	srv.Kill()
	fmt.Println("server killed (no graceful shutdown)")

	// Restart from the same directory. Recovery replays the journal
	// through the CAMP policy, rebuilding its queues with the original
	// costs.
	srv2, err := kvserver.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv2.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()

	cli2 := dial(srv2)
	defer cli2.Close()
	after := hitRate(cli2, genCfg)
	fmt.Printf("warm hit rate after restart: %.1f%%\n", 100*after)
	stats, err := cli2.Stats("stats")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery replayed %s journal ops (persist_gen %s)\n",
		stats["restored_aof_ops"], stats["persist_gen"])
	if before != after {
		fmt.Println("NOTE: hit rates differ — is the journal order being preserved?")
	} else {
		fmt.Println("restart kept the working set and its costs: hit rates match exactly")
	}
}

func dial(srv *kvserver.Server) *kvclient.Client {
	cli, err := kvclient.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	return cli
}

// hitRate replays the workload's reference stream read-only.
func hitRate(cli *kvclient.Client, cfg trace.Config) float64 {
	g := trace.NewGenerator(cfg)
	hits, total := 0, 0
	for {
		req, ok := g.Next()
		if !ok {
			break
		}
		total++
		if _, ok, err := cli.Get(req.Key); err != nil {
			log.Fatal(err)
		} else if ok {
			hits++
		}
	}
	return float64(hits) / float64(total)
}
