//go:build !race

// The race runtime allocates on its own, so the budget holds only without it.

package kvserver

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"camp/internal/kvbuf"
)

// TestAllocBudget holds the protocol hot path to its allocation budget: the
// pipelined 20-op batch of BenchmarkServerOps/shards=1 (a 16-key multiget and
// four noreply sets, both sides of the wire counted), run a fixed number of
// times by as many clients as the benchmark uses. Byte mode measures 4 allocs
// and about 566 B per batch — the key-and-value buffer each set's item keeps
// (the benchmark's sets overwrite resident keys, which cost one buffer before
// this layout and after it) — and arena mode 0 allocs and about 222 B; the
// budgets leave headroom of 2 for pool and GC jitter.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server benchmark")
	}
	const batches = 20_000
	for _, tc := range []struct {
		mode   string
		budget uint64
	}{{ModeByte, 6}, {ModeArena, 2}} {
		s := startBenchServer(t, 1, tc.mode)
		var left atomic.Int64
		left.Store(batches)
		next := func() bool { return left.Add(-1) >= 0 }
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		for i := 0; i < 8*runtime.GOMAXPROCS(0); i++ { // benchServerOps's parallelism
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				runBatches(t, s.Addr(), seed, next)
			}(int64(i + 1))
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		if t.Failed() {
			t.Fatalf("%s: the batches failed", tc.mode)
		}
		allocs := (after.Mallocs - before.Mallocs) / batches
		t.Logf("%s: %d allocs, %d B per batch over %d batches", tc.mode, allocs, (after.TotalAlloc-before.TotalAlloc)/batches, batches)
		if allocs > tc.budget {
			t.Errorf("%s: %d allocs per batch, budget %d", tc.mode, allocs, tc.budget)
		}
	}
}

// TestNewKeyAllocs pins what a brand-new key costs the heap on the set path:
// one allocation in either layout. In byte mode it is the buffer the wire
// reads the payload into, which holds the key too; in arena mode the value
// goes to the arena and the allocation is the item's key-only buffer. The
// item itself sits in a chunk and the index is a flat slot array, so neither
// allocates per key (their amortized growth rounds away over the runs).
func TestNewKeyAllocs(t *testing.T) {
	const runs = 2000
	for _, mode := range []string{ModeByte, ModeArena} {
		t.Run(mode, func(t *testing.T) {
			s, err := New(Config{MemoryBytes: 64 << 20, Shards: 1, Mode: mode, DisableIQ: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sh := s.shards[0]
			keys := make([][]byte, runs+1)
			for i := range keys {
				keys[i] = fmt.Appendf(nil, "new-key-%05d", i)
			}
			value := bytes.Repeat([]byte("v"), 100)
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				key := keys[i]
				i++
				var kv []byte
				v := value
				if !s.copiesValues {
					kv = kvbuf.New(key, len(value)) // what mutate reads the payload into
					v = kvbuf.Value(kv)
					copy(v, value)
				}
				sh.mu.Lock()
				reply := sh.storeLocked(verbSet, key, kv, v, 0, 0, 1, 1)
				sh.mu.Unlock()
				if string(reply) != string(replyStored) {
					t.Fatalf("set %s: %q", key, reply)
				}
			})
			if allocs != 1 {
				t.Fatalf("a new key costs %v allocations, want 1", allocs)
			}
		})
	}
}
