package kvserver

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"camp/internal/kvclient"
)

// BenchmarkServerOps measures end-to-end server throughput under parallel
// client load at different shard counts — the tentpole number for the
// sharded kvserver. Each iteration is one pipelined batch per client: a
// 16-key multiget plus 4 noreply sets (20 ops), so the store, not the
// per-op network round trip, is the bottleneck. The ops/s metric counts
// individual operations. On a multi-core machine the 8-shard run should
// beat 1 shard by well over 2x; on a single core the spread collapses to
// lock-contention effects only.
//
// allocs/op is the zero-allocation-protocol gate: it covers both sides of
// the wire (client command building and response parsing, server parse,
// store and reply), so the steady state is just the per-set allocations the
// store itself makes (value buffer, key string, item, policy node). The
// budget is enforced by TestAllocBudget.
func BenchmarkServerOps(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServerOps(b, shards, ModeByte)
		})
	}
}

// BenchmarkServerOpsArena is the same workload against the packed-arena
// engine. The interesting metric is allocs/op: the arena copies set payloads
// into pooled scratch and packed segments instead of retaining per-item
// slices, so the steady state drops from byte mode's ~20 allocs per 20-op
// batch to the policy-node floor. TestAllocBudget enforces the arena budget
// separately.
func BenchmarkServerOpsArena(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServerOps(b, shards, ModeArena)
		})
	}
}

// BenchmarkEvictionManyTenants hammers a deliberately undersized server with
// sets from many tenants at once, so every batch runs the cross-tenant
// arbiter under eviction pressure. Before the batched arbiter this walked
// every tenant per victim and re-summed per-tenant usage per freed byte —
// O(tenants × victims) policy walks per set; now one walk picks a victim run.
// The ops/s here is dominated by that arbitration cost.
func BenchmarkEvictionManyTenants(b *testing.B) {
	for _, tenants := range []int{4, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			benchEvictionTenants(b, tenants)
		})
	}
}

func benchEvictionTenants(b *testing.B, tenants int) {
	s, err := New(Config{
		MemoryBytes: 4 << 20, // far below the working set: every set evicts
		Shards:      1,
		Policy:      "camp",
		DisableIQ:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	value := make([]byte, 4096)
	// Warm every tenant past its share so the arbiter has a full table to
	// walk from the first measured op.
	for t := 0; t < tenants; t++ {
		warm, err := kvclient.DialWithTenant(s.Addr(), fmt.Sprintf("t%03d", t))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2048/tenants+16; i++ {
			if err := warm.SetNoreply(benchKeySet[i], value, 0, 0, int64(1+i%100)); err != nil {
				b.Fatal(err)
			}
		}
		if err := warm.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := warm.Version(); err != nil {
			b.Fatal(err)
		}
		warm.Close()
	}

	b.SetParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	var seed atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		c, err := kvclient.DialWithTenant(s.Addr(), fmt.Sprintf("t%03d", n%int64(tenants)))
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(n))
		for pb.Next() {
			for i := 0; i < benchBatchSets; i++ {
				if err := c.SetNoreply(benchKeySet[rng.Intn(benchKeys)], value, 0, 0, int64(1+rng.Intn(100))); err != nil {
					b.Error(err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(benchBatchSets)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	b.StopTimer()
	b.ReportMetric(float64(totalEvictions(s)), "evictions")
}

// BenchmarkServerOpsTenants is the two-tenant variant: half the clients run
// as a reserved "prod" tenant over a fully warmed keyspace, half as a
// best-effort "batch" tenant warmed to only half its keyspace, so the run
// exercises the namespaced hot path and the per-tenant accounting under the
// same pipelined batch workload. Besides ops/s it reports each tenant's
// lifetime hit rate from the server's own counters — the per-tenant figures
// committed in the BENCH report.
func BenchmarkServerOpsTenants(b *testing.B) {
	s, err := New(Config{
		MemoryBytes:    256 << 20,
		Shards:         4,
		Policy:         "camp",
		DisableIQ:      true,
		TenantReserves: map[string]int64{"prod": 64 << 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	value := make([]byte, benchValueLen)
	warmTenant := func(name string, keys int) {
		warm, err := kvclient.DialWithTenant(s.Addr(), name)
		if err != nil {
			b.Fatal(err)
		}
		defer warm.Close()
		for i := 0; i < keys; i++ {
			if err := warm.SetNoreply(benchKeySet[i], value, 0, 0, int64(1+i%100)); err != nil {
				b.Fatal(err)
			}
		}
		if err := warm.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := warm.Version(); err != nil {
			b.Fatal(err)
		}
	}
	warmTenant("prod", benchKeys)
	warmTenant("batch", benchKeys/2)

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	var seed atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		name := "prod"
		if n%2 == 0 {
			name = "batch"
		}
		c, err := kvclient.DialWithTenant(s.Addr(), name)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(n))
		batch := make([]string, benchBatchGets)
		var got int
		sink := func(key, value []byte, flags uint32) { got += len(value) }
		for pb.Next() {
			for i := range batch {
				batch[i] = benchKeySet[rng.Intn(benchKeys)]
			}
			if err := c.MultiGetFunc(sink, batch...); err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < benchBatchSets; i++ {
				if err := c.SetNoreply(benchKeySet[rng.Intn(benchKeys)], value, 0, 0, int64(1+rng.Intn(100))); err != nil {
					b.Error(err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	opsPerIter := float64(benchBatchGets + benchBatchSets)
	b.ReportMetric(opsPerIter*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	b.StopTimer()
	lc, err := kvclient.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	ts, err := lc.Stats("stats tenants")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"prod", "batch"} {
		hits := float64(statInt(b, ts, "tenant:"+name+":hits"))
		misses := float64(statInt(b, ts, "tenant:"+name+":misses"))
		if hits+misses > 0 {
			b.ReportMetric(hits/(hits+misses), "hitrate_"+name)
		}
	}
}

// BenchmarkServerOpsTenantQuota runs the two-tenant workload with the
// best-effort "batch" tenant capped at 5k ops/sec — far below what the
// workload drives — so its noreply sets are shed silently once the bucket
// drains while "prod" runs unlimited. Besides ops/s
// it reports each tenant's lifetime quota_shed count from the server's own
// counters as quota_shed_<tenant> metrics, so the shed volume under a known
// overload shows alongside the throughput cost of the quota check itself
// (compare against BenchmarkServerOpsTenants).
func BenchmarkServerOpsTenantQuota(b *testing.B) {
	s, err := New(Config{
		MemoryBytes:    256 << 20,
		Shards:         4,
		Policy:         "camp",
		DisableIQ:      true,
		TenantReserves: map[string]int64{"prod": 64 << 20},
		TenantQuotas:   map[string]TenantQuota{"batch": {OpsPerSec: 5_000}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	value := make([]byte, benchValueLen)
	warmTenant := func(name string, keys int) {
		warm, err := kvclient.DialWithTenant(s.Addr(), name)
		if err != nil {
			b.Fatal(err)
		}
		defer warm.Close()
		for i := 0; i < keys; i++ {
			if err := warm.SetNoreply(benchKeySet[i], value, 0, 0, int64(1+i%100)); err != nil {
				b.Fatal(err)
			}
		}
		if err := warm.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := warm.Version(); err != nil {
			b.Fatal(err)
		}
	}
	warmTenant("prod", benchKeys)
	// The batch warm-up fits inside the 1s burst, so the measured run starts
	// with a warm keyspace AND a drained bucket — sheds begin immediately.
	warmTenant("batch", benchKeys/2)

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	var seed atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		name := "prod"
		if n%2 == 0 {
			name = "batch"
		}
		c, err := kvclient.DialWithTenant(s.Addr(), name)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(n))
		batch := make([]string, benchBatchGets)
		var got int
		sink := func(key, value []byte, flags uint32) { got += len(value) }
		for pb.Next() {
			for i := range batch {
				batch[i] = benchKeySet[rng.Intn(benchKeys)]
			}
			if err := c.MultiGetFunc(sink, batch...); err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < benchBatchSets; i++ {
				if err := c.SetNoreply(benchKeySet[rng.Intn(benchKeys)], value, 0, 0, int64(1+rng.Intn(100))); err != nil {
					b.Error(err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	opsPerIter := float64(benchBatchGets + benchBatchSets)
	b.ReportMetric(opsPerIter*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	b.StopTimer()
	lc, err := kvclient.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	ts, err := lc.Stats("stats tenants")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"prod", "batch"} {
		b.ReportMetric(float64(statInt(b, ts, "tenant:"+name+":quota_shed")), "quota_shed_"+name)
	}
}

const (
	benchKeys      = 8192
	benchValueLen  = 100
	benchBatchGets = 16
	benchBatchSets = 4
)

// benchKeySet precomputes the keyspace once: key formatting is the
// workload generator's job, not the protocol cost under measurement.
var benchKeySet = func() []string {
	keys := make([]string, benchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	return keys
}()

func benchServerOps(b *testing.B, shards int, mode string) {
	s := startBenchServer(b, shards, mode)
	b.SetParallelism(8) // 8 concurrent clients per GOMAXPROCS
	b.ReportAllocs()
	b.ResetTimer()
	var seed atomic.Int64
	b.RunParallel(func(pb *testing.PB) { runBatches(b, s.Addr(), seed.Add(1), pb.Next) })
	opsPerIter := float64(benchBatchGets + benchBatchSets)
	b.ReportMetric(opsPerIter*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	b.StopTimer()
	// Server-side latency quantiles for the run, from the per-verb
	// histograms the server kept while the benchmark hammered it.
	lc, err := kvclient.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	lat, err := lc.Stats("stats latency")
	if err != nil {
		b.Fatal(err)
	}
	for _, verb := range []string{"get", "set"} {
		for _, q := range []string{"p50", "p95", "p99"} {
			name := verb + "_" + q + "_us"
			b.ReportMetric(float64(statInt(b, lat, name)), q+"_"+verb+"_us")
		}
	}
}

// startBenchServer starts the server benchServerOps measures, with every key
// of benchKeySet stored.
func startBenchServer(tb testing.TB, shards int, mode string) *Server {
	s, err := New(Config{
		MemoryBytes: 256 << 20,
		Shards:      shards,
		Policy:      "camp",
		Mode:        mode,
		DisableIQ:   true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	value := make([]byte, benchValueLen)
	warm, err := kvclient.Dial(s.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	defer warm.Close()
	for i := 0; i < benchKeys; i++ {
		if err := warm.SetNoreply(benchKeySet[i], value, 0, 0, int64(1+i%100)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := warm.Flush(); err != nil {
		tb.Fatal(err)
	}
	// A synchronous command drains the pipeline before timing starts.
	if _, err := warm.Version(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// runBatches is one client of benchServerOps: it sends a pipelined batch — a
// benchBatchGets-key multiget and benchBatchSets noreply sets of random keys —
// for as long as next reports true.
func runBatches(tb testing.TB, addr string, seed int64, next func() bool) {
	c, err := kvclient.Dial(addr)
	if err != nil {
		tb.Error(err)
		return
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	value := make([]byte, benchValueLen)
	batch := make([]string, benchBatchGets)
	var got int
	sink := func(key, value []byte, flags uint32) { got += len(value) }
	for next() {
		for i := range batch {
			batch[i] = benchKeySet[rng.Intn(benchKeys)]
		}
		if err := c.MultiGetFunc(sink, batch...); err != nil {
			tb.Error(err)
			return
		}
		for i := 0; i < benchBatchSets; i++ {
			if err := c.SetNoreply(benchKeySet[rng.Intn(benchKeys)], value, 0, 0, int64(1+rng.Intn(100))); err != nil {
				tb.Error(err)
				return
			}
		}
		if err := c.Flush(); err != nil {
			tb.Error(err)
			return
		}
	}
}
