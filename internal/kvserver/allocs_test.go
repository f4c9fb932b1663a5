//go:build !race

// The race runtime allocates on its own, so the budget holds only without it.

package kvserver

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAllocBudget holds the protocol hot path to its allocation budget: the
// pipelined 20-op batch of BenchmarkServerOps/shards=1 (a 16-key multiget and
// four noreply sets, both sides of the wire counted), run a fixed number of
// times by as many clients as the benchmark uses. Byte mode measures 4 allocs
// per batch — the value slice each set retains — and arena mode 0; the
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
