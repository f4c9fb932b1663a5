package camp

// This file holds one benchmark per table/figure of the paper's evaluation
// (run them with -benchtime=1x to print the regenerated tables via b.Log)
// plus microbenchmarks for the hot paths and the ablations called out in
// DESIGN.md. cmd/campsim prints the same tables at full scale.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"camp/internal/cache"
	"camp/internal/core"
	"camp/internal/figures"
	"camp/internal/rounding"
	"camp/internal/trace"
)

// benchConfig keeps figure benchmarks to a few seconds each.
func benchConfig() figures.Config {
	return figures.Config{
		Keys:             4000,
		Requests:         120000,
		EvolvingTraces:   5,
		EvolvingRequests: 40000,
		Seed:             1,
		Ratios:           []float64{0.1, 0.3, 0.6},
		Precisions:       []uint{1, 3, 5, 7, core.PrecisionInf},
	}
}

func benchFigure(b *testing.B, fn func(figures.Config) *figures.Table) {
	b.Helper()
	cfg := benchConfig()
	var tbl *figures.Table
	for i := 0; i < b.N; i++ {
		tbl = fn(cfg)
	}
	b.Log("\n" + tbl.Format())
}

func BenchmarkFig4(b *testing.B)      { benchFigure(b, figures.Fig4) }
func BenchmarkFig5a(b *testing.B)     { benchFigure(b, figures.Fig5a) }
func BenchmarkFig5b(b *testing.B)     { benchFigure(b, figures.Fig5b) }
func BenchmarkFig5c(b *testing.B)     { benchFigure(b, figures.Fig5c) }
func BenchmarkFig5d(b *testing.B)     { benchFigure(b, figures.Fig5d) }
func BenchmarkFig5dPool(b *testing.B) { benchFigure(b, figures.Fig5dPools) }
func BenchmarkFig6a(b *testing.B)     { benchFigure(b, figures.Fig6a) }
func BenchmarkFig6b(b *testing.B)     { benchFigure(b, figures.Fig6b) }
func BenchmarkFig6c(b *testing.B)     { benchFigure(b, figures.Fig6c) }
func BenchmarkFig6d(b *testing.B)     { benchFigure(b, figures.Fig6d) }
func BenchmarkFig7(b *testing.B)      { benchFigure(b, figures.Fig7) }
func BenchmarkFig8a(b *testing.B)     { benchFigure(b, figures.Fig8a) }
func BenchmarkFig8b(b *testing.B)     { benchFigure(b, figures.Fig8b) }
func BenchmarkFig8c(b *testing.B)     { benchFigure(b, figures.Fig8c) }

func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	cfg.Requests = 48000 // replays Requests/4 rows over loopback TCP
	var tables []*figures.Table
	for i := 0; i < b.N; i++ {
		tables = figures.Fig9All(cfg)
	}
	for _, t := range tables {
		b.Log("\n" + t.Format())
	}
}

// BenchmarkTable1Rounding covers Table 1: the MSY rounding operation itself.
func BenchmarkTable1Rounding(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint64, 1024)
	for i := range xs {
		xs[i] = rng.Uint64() >> (rng.Intn(48))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= rounding.Round(xs[i&1023], 4)
	}
	_ = sink
}

// ---------------------------------------------------------------------------
// Policy microbenchmarks
// ---------------------------------------------------------------------------

func policyUnderTest(name string, capacity int64) cache.Policy {
	switch name {
	case "camp":
		return core.NewCamp(capacity)
	case "lru":
		return cache.NewLRU(capacity)
	case "gds":
		return core.NewGDS(capacity)
	default:
		panic("unknown policy " + name)
	}
}

// BenchmarkGetHit measures the hit path with a resident working set.
func BenchmarkGetHit(b *testing.B) {
	for _, name := range []string{"lru", "camp", "gds"} {
		b.Run(name, func(b *testing.B) {
			p := policyUnderTest(name, 1<<30)
			costs := []int64{1, 100, 10000}
			keys := make([]string, 4096)
			for i := range keys {
				keys[i] = "key" + strconv.Itoa(i)
				p.Set(keys[i], 100, costs[i%3])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Get(keys[i&4095])
			}
		})
	}
}

// BenchmarkSetEvict measures the insert-with-eviction path on a full cache.
func BenchmarkSetEvict(b *testing.B) {
	for _, name := range []string{"lru", "camp", "gds"} {
		b.Run(name, func(b *testing.B) {
			p := policyUnderTest(name, 4096*100)
			costs := []int64{1, 100, 10000}
			for i := 0; i < 4096; i++ {
				p.Set("warm"+strconv.Itoa(i), 100, costs[i%3])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Set("k"+strconv.Itoa(i), 100, costs[i%3])
			}
		})
	}
}

// BenchmarkMixedWorkload is the paper's regime: skewed gets with miss-fill.
func BenchmarkMixedWorkload(b *testing.B) {
	for _, name := range []string{"lru", "camp", "gds"} {
		b.Run(name, func(b *testing.B) {
			p := policyUnderTest(name, 200*1000)
			rng := rand.New(rand.NewSource(7))
			costs := []int64{1, 100, 10000}
			keys := make([]string, 8192)
			for i := range keys {
				keys[i] = "key" + strconv.Itoa(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var k string
				if rng.Intn(10) < 7 {
					k = keys[rng.Intn(len(keys)/5)]
				} else {
					k = keys[rng.Intn(len(keys))]
				}
				if !p.Get(k) {
					p.Set(k, 100, costs[rng.Intn(3)])
				}
			}
		})
	}
}

// BenchmarkShardedCache measures §4.1's vertical-scaling story: throughput
// of the public Cache under parallel load at different shard counts.
func BenchmarkShardedCache(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := New(64<<20, WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			value := make([]byte, 100)
			for i := 0; i < 8192; i++ {
				c.Set("key"+strconv.Itoa(i), value, int64(i%100+1))
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					k := "key" + strconv.Itoa(rng.Intn(8192))
					if _, ok := c.Get(k); !ok {
						c.Set(k, value, int64(rng.Intn(100)+1))
					}
				}
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §6)
// ---------------------------------------------------------------------------

// BenchmarkAblationPrecision shows precision's cost/benefit: run time of the
// same workload at different rounding precisions.
func BenchmarkAblationPrecision(b *testing.B) {
	for _, p := range []uint{1, 5, core.PrecisionInf} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			pol := core.NewCamp(200*1000, core.WithPrecision(p))
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := "key" + strconv.Itoa(rng.Intn(8192))
				if !pol.Get(k) {
					pol.Set(k, int64(rng.Intn(900)+100), int64(rng.Intn(10000)+1))
				}
			}
			b.ReportMetric(float64(pol.QueueCount()), "queues")
		})
	}
}

// BenchmarkAblationHeapArity compares the paper's 8-ary heap against binary
// and 4-ary heaps inside CAMP.
func BenchmarkAblationHeapArity(b *testing.B) {
	for _, d := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			pol := core.NewCamp(200*1000, core.WithHeapArity(d))
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := "key" + strconv.Itoa(rng.Intn(8192))
				if !pol.Get(k) {
					pol.Set(k, int64(rng.Intn(900)+100), int64(rng.Intn(10000)+1))
				}
			}
		})
	}
}

// BenchmarkAblationLUpdate compares Algorithm 1's min-of-remaining L rule
// against the classic Cao-Irani evicted-H rule.
func BenchmarkAblationLUpdate(b *testing.B) {
	for _, classic := range []bool{false, true} {
		name := "min-of-remaining"
		if classic {
			name = "classic-evicted-h"
		}
		b.Run(name, func(b *testing.B) {
			var opts []core.Option
			if classic {
				opts = append(opts, core.WithClassicLUpdate())
			}
			pol := core.NewCamp(200*1000, opts...)
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := "key" + strconv.Itoa(rng.Intn(8192))
				if !pol.Get(k) {
					pol.Set(k, int64(rng.Intn(900)+100), int64(rng.Intn(10000)+1))
				}
			}
		})
	}
}

// BenchmarkAblationGDSDelete compares GDS's two heap-deletion strategies
// (Figure 4's gds-textbook and gds-optimized columns: internal/figures/fig4_5.go,
// pinned in internal/figures/testdata/figures/fig4.golden).
func BenchmarkAblationGDSDelete(b *testing.B) {
	for _, textbook := range []bool{false, true} {
		name := "replace-with-last"
		if textbook {
			name = "textbook"
		}
		b.Run(name, func(b *testing.B) {
			var pol *core.GDS
			if textbook {
				pol = core.NewGDS(200*1000, core.WithTextbookDelete())
			} else {
				pol = core.NewGDS(200 * 1000)
			}
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := "key" + strconv.Itoa(rng.Intn(8192))
				if !pol.Get(k) {
					pol.Set(k, int64(rng.Intn(900)+100), int64(rng.Intn(10000)+1))
				}
			}
			b.ReportMetric(float64(pol.HeapVisits())/float64(b.N), "visits/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate microbenchmarks
// ---------------------------------------------------------------------------

func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := trace.NewBGTrace(int64(i), 1000, 10000)
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
	}
}
