//go:build !race

// The race runtime allocates on its own, so the budget holds only without it.

package kvserver

import "testing"

// TestAllocBudget holds the protocol hot path to its allocation budget: the
// pipelined 20-op batch of BenchmarkServerOps/shards=1 (a 16-key multiget and
// four noreply sets, both sides of the wire counted). Byte mode measures 4
// allocs per batch — the value slice each set retains — and arena mode 0;
// the budgets leave headroom of 2 for pool and GC jitter.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server benchmark")
	}
	for _, tc := range []struct {
		mode   string
		budget int64
	}{{ModeByte, 6}, {ModeArena, 2}} {
		r := testing.Benchmark(func(b *testing.B) { benchServerOps(b, 1, tc.mode) })
		if r.N == 0 {
			t.Fatalf("%s: the benchmark failed", tc.mode)
		}
		t.Logf("%s: %d allocs, %d B per batch over %d batches", tc.mode, r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
		if got := r.AllocsPerOp(); got > tc.budget {
			t.Errorf("%s: %d allocs per batch, budget %d", tc.mode, got, tc.budget)
		}
	}
}
