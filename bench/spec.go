// Package bench is the repository's performance benchmark: it runs
// cmd/campsrv as a separate process, drives it over loopback TCP, verifies
// every reply, and reports the end-to-end and per-layer metrics named in
// BENCHMARK.json. README.md in this
// directory defines every metric and says why each workload exists.
package bench

import (
	"fmt"
	"math/rand"

	"camp/internal/trace"
)

// Spec is one workload: a server configuration plus a traffic shape. Every
// field is a committed constant — nothing here is derived from the machine
// or calibrated at run time, so numbers stay comparable across commits.
type Spec struct {
	Name string
	Why  string

	// Server side.
	Mode     string // campsrv -mode
	Mem      string // campsrv -mem
	MemBytes int64  // Mem in bytes, the capacity the in-process layer replays use
	Durable  bool   // -data-dir + -fsync everysec; setup ends with SIGKILL + recovery + read-back
	AOFLimit string // campsrv -aof-limit when Durable

	// Traffic.
	Conns     int  // driver connections (at most nproc = 2)
	Keys      int  // key population
	Hotspot   bool // 70/20 hotspot key popularity; false = uniform
	LogNormal bool // values log-normal median 4 KiB clamped to 32 KiB; false = U[100,1000] B
	Sets      int  // sets per batch (not Replay)
	Noreply   bool // sets carry noreply
	GetKeys   int  // keys in the batch's one multiget
	Replay    bool // evict_bg: batches come from the BG trace and every miss is followed by a set
	Preload   int  // Replay only: trace requests replayed during setup (the others preload every key)

	// OpenRate is the open-loop offered rate in batches per second over all
	// connections: calibrated once on the commit that introduced the
	// benchmark to about half the workload's closed-loop batch rate, two
	// significant figures, and never derived at run time.
	OpenRate float64
	// ReplayRate sizes evict_bg's fixed-length phases: requests per second
	// of --seconds, so that the replay is deterministic in length yet takes
	// about the asked time on the calibration machine.
	ReplayRate float64
}

// Specs lists the four workloads in the order they run.
var Specs = []Spec{
	{
		Name: "get_hot",
		Why:  "small hot reads: proto parse, core index lookup+touch, shard lock and reply write do the work; persist and alloc do none",
		Mode: "byte", Mem: "256MiB", MemBytes: 256 << 20,
		Conns: 2, Keys: 200_000, Hotspot: true, Sets: 1, GetKeys: 16,
		OpenRate: 11000,
	},
	{
		Name: "set_durable",
		Why:  "journaled overwrites: one write(2) per mutation under the shard lock plus background compaction; yields recover_s",
		Mode: "byte", Mem: "256MiB", MemBytes: 256 << 20, Durable: true, AOFLimit: "256MiB",
		Conns: 2, Keys: 200_000, Sets: 8, Noreply: true, GetKeys: 2,
		OpenRate: 7200,
	},
	{
		Name: "evict_bg",
		Why:  "the paper's BG trace at 25% cache size: every miss runs admission, core eviction, heap update and layout free",
		Mode: "byte", Mem: "14MiB", MemBytes: 14 << 20,
		Conns: 1, Keys: 100_000, Hotspot: true, GetKeys: 16, Replay: true, Preload: 200_000,
		OpenRate: 10000, ReplayRate: 330_000,
	},
	{
		Name: "arena_mixed",
		Why:  "large values in the packed layout: value copy under the lock, reply staging and donated CompactStep dominate",
		Mode: "arena", Mem: "640MiB", MemBytes: 640 << 20,
		Conns: 2, Keys: 50_000, LogNormal: true, Sets: 4, GetKeys: 4,
		OpenRate: 7300,
	},
}

// SpecByName returns the named workload.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// ServerFlags are passed on every run so machine size never changes the
// server's configuration.
var ServerFlags = []string{
	"-shards", "2", "-policy", "camp", "-precision", "5", "-no-iq",
	"-slowlog-threshold", "-1", "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
}

// Def names a metric and its unit.
type Def struct{ Name, Unit string }

// EndToEnd and PerLayer are the metrics a run emits with -trace 0 and
// -trace 1, in BENCHMARK.json's order; a test holds the two equal.
var (
	EndToEnd = []Def{
		{"setup_s", "s"}, {"ops_per_s", "op/s"}, {"cpu_us_per_op", "us"}, {"heap_bytes_per_item", "B"},
	}
	PerLayer = []Def{
		{"proto.parse_ns", "ns"},
		{"core.policy_ns", "ns"}, {"core.lru_ns", "ns"}, {"core.heap_updates_per_op", "count"}, {"core.evictions", "count"},
		{"alloc.arena_ns", "ns"}, {"alloc.copy_ns", "ns"}, {"alloc.relocated_bytes_per_set", "B"},
		{"persist.append_ns", "ns"}, {"persist.append_always_ns", "ns"}, {"persist.batch32_ns", "ns"},
		{"persist.bytes_per_user_byte", "ratio"},
		{"kvserver.syscalls_per_op", "count"}, {"kvserver.ctxsw_per_op", "count"}, {"kvserver.lock_hold_p99_us", "us"},
		{"kvserver.journal_bytes", "B"}, {"kvserver.compactions", "count"}, {"kvserver.arena_relocated_bytes", "B"},
		{"kvserver.disk_bytes_per_user_byte", "ratio"}, {"kvserver.rtt_us", "us"},
		{"p50_us", "us"}, {"p99_us", "us"}, {"gen_late_p50_us", "us"},
		{"kvclient.codec_ns", "ns"}, {"camp.cache_ns", "ns"}, {"baseline.map_ns", "ns"},
		{"driver.self_us_per_batch", "us"}, {"traced_ops_per_s", "op/s"}, {"traced_cpu_us_per_op", "us"},
		{"trace_overhead_share", "ratio"}, {"unattributed_share", "ratio"},
		{"cost_miss_ratio", "ratio"}, {"miss_rate", "ratio"}, {"recover_s", "s"},
		{"driver_cpu_us_per_op", "us"}, {"fail_share", "ratio"},
	}
)

// unitOf returns a declared metric's unit ("" if it is not declared).
func unitOf(name string) string {
	for _, defs := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// Keyspace is a workload's key population: names, value sizes and costs, all
// a pure function of the seed.
type Keyspace struct {
	Keys  []string
	Sizes []int32
	Costs []int64
}

// NewKeyspace draws the population with internal/trace's own models, so the
// sizes and the {1, 100, 10 000} costs are the paper's.
func NewKeyspace(sp Spec, seed int64) *Keyspace {
	rng := rand.New(rand.NewSource(seed))
	size := trace.SizeUniform(100, 1000)
	if sp.LogNormal {
		size = trace.SizeLogNormal(4096, 1.0, 32<<10)
	}
	cost := trace.CostChoice(1, 100, 10000)
	ks := &Keyspace{
		Keys:  make([]string, sp.Keys),
		Sizes: make([]int32, sp.Keys),
		Costs: make([]int64, sp.Keys),
	}
	for i := range ks.Keys {
		ks.Keys[i] = fmt.Sprintf("k%d", i)
		n := size(rng)
		ks.Sizes[i] = int32(n)
		ks.Costs[i] = cost(rng, n)
	}
	return ks
}

func (sp Spec) dist() trace.KeyDist {
	if sp.Hotspot {
		return trace.NewHotspot(sp.Keys)
	}
	return trace.Uniform{N: sp.Keys}
}
