// Command campsrv runs a standalone cost-aware key-value server speaking a
// memcached-style text protocol (see internal/kvserver for the grammar).
//
// Usage:
//
//	campsrv -addr 127.0.0.1:11211 -mem 64MiB -policy camp [-mode byte|arena]
//	        [-shards N] [-precision 5] [-no-iq]
//	        [-replica-of host:port]
//	        [-tenant-reserve name=bytes ...] [-tenant-quota name=ops[:bytes] ...]
//	        [-data-dir /var/lib/campsrv [-fsync everysec] [-aof-limit 64MiB]]
//
// -shards (default: one per core, capped so each shard keeps a useful
// slice of -mem) hash-partitions keys across independent stores, each with
// its own lock and its own journal under data-dir/shard-NNN/, so writes
// scale across cores. A data directory written with a different -shards is
// migrated in place at startup.
//
// In IQ mode (default) the server derives each key's cost from the elapsed
// time between a get miss and the subsequent set, as in the paper's §4
// deployment.
//
// With -data-dir set, mutations are journaled to an append-only log and the
// server warm-restarts from the newest snapshot plus the journal tail, so a
// deploy or crash does not throw away the working set or the per-key costs
// IQ mode spent real time learning. A shard's journal is compacted into a
// fresh snapshot once it outgrows -aof-limit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"camp/internal/kvserver"
	"camp/internal/persist"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campsrv:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		mem       = flag.String("mem", "64MiB", "cache memory (e.g. 512KiB, 64MiB, 2GiB)")
		shards    = flag.Int("shards", 0, "independent stores keys are hashed across, with per-shard locks and journals (0 = auto: GOMAXPROCS, capped so each shard keeps a useful capacity)")
		policy    = flag.String("policy", "camp", "eviction policy: camp, lru or gds")
		mode      = flag.String("mode", "byte", "memory management: byte or arena (packed per-shard segments with incremental compaction)")
		precision = flag.Uint("precision", 5, "CAMP rounding precision (0 = infinite)")
		noIQ      = flag.Bool("no-iq", false, "disable IQ miss-to-set cost derivation")

		replicaOf = flag.String("replica-of", "", "start as a read-only replica of the primary at this address (shard counts must match; promote with the 'replica promote' command)")

		metricsAddr = flag.String("metrics-addr", "", "HTTP listen address serving Prometheus metrics at /metrics and pprof at /debug/pprof/ (empty = off)")
		slowlogMS   = flag.Int64("slowlog-threshold", 10, "slowlog threshold in milliseconds (0 records every command, negative disables; adjustable at runtime with 'slowlog threshold <ms>')")

		maxConns = flag.Int("max-conns", 0, "maximum concurrently served connections (0 = unlimited); accepts beyond the cap are refused and counted in accept_rejected_maxconns")
		drain    = flag.Duration("drain-timeout", 5*time.Second, "graceful shutdown: how long in-flight pipelines may finish after SIGTERM before straggler connections are closed")

		reserves = tenantReserves{}
		quotas   = tenantQuotas{}

		dataDir  = flag.String("data-dir", "", "persistence directory (empty = volatile cache)")
		fsync    = flag.String("fsync", persist.FsyncEverySec, "AOF sync policy: always, everysec or no")
		aofLimit = flag.String("aof-limit", "", "AOF size triggering compaction (default 64MiB)")
	)
	flag.Var(&reserves, "tenant-reserve", "reserve memory for a tenant as name=bytes (e.g. -tenant-reserve gold=16MiB); repeatable")
	flag.Var(&quotas, "tenant-quota", "request quota for a tenant as name=ops[:bytes] (ops/sec shed limit, optional in-flight mutation bytes, e.g. -tenant-quota bronze=500:1MiB); repeatable")
	flag.Parse()

	bytes, err := parseSize(*mem)
	if err != nil {
		return err
	}
	if *shards == 0 {
		*shards = defaultShards(bytes)
	}
	cfg := kvserver.Config{
		Addr:        *addr,
		MemoryBytes: bytes,
		Shards:      *shards,
		Policy:      *policy,
		Mode:        *mode,
		Precision:   *precision,
		DisableIQ:   *noIQ,
		MaxConns:    *maxConns,
		ReplicaOf:   *replicaOf,
		MetricsAddr: *metricsAddr,
	}
	if len(reserves) > 0 {
		cfg.TenantReserves = reserves
	}
	if len(quotas) > 0 {
		cfg.TenantQuotas = quotas
	}
	switch {
	case *slowlogMS < 0:
		cfg.SlowlogThreshold = -1 // disabled
	case *slowlogMS == 0:
		cfg.SlowlogThreshold = 1 // smallest enabled threshold: records everything over 1ns
	default:
		cfg.SlowlogThreshold = time.Duration(*slowlogMS) * time.Millisecond
	}
	if *dataDir != "" {
		p := &kvserver.PersistConfig{
			Dir:   *dataDir,
			Fsync: *fsync,
			Logf:  log.Printf,
		}
		if *aofLimit != "" {
			if p.AOFLimit, err = parseSize(*aofLimit); err != nil {
				return err
			}
		}
		cfg.Persist = p
	}
	// Installed before the server exists: a supervisor that signals right
	// after exec (or mid-recovery) must get the graceful drain below, not
	// the runtime's kill-by-default.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	start := time.Now()
	srv, err := kvserver.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("campsrv listening on %s (policy=%s mode=%s mem=%d bytes shards=%d)\n",
		srv.Addr(), *policy, *mode, bytes, *shards)
	if *replicaOf != "" {
		fmt.Printf("campsrv: read-only replica of %s (promote with 'replica promote')\n", *replicaOf)
	}
	if *metricsAddr != "" {
		fmt.Printf("campsrv: metrics on http://%s/metrics (pprof under /debug/pprof/)\n", srv.MetricsAddr())
	}
	if *dataDir != "" {
		fmt.Printf("campsrv: persistence in %s (fsync=%s), recovered in %v\n",
			*dataDir, *fsync, time.Since(start).Round(time.Millisecond))
	}

	// SIGTERM/SIGINT drain gracefully: stop accepting, let in-flight
	// pipelines finish (bounded by -drain-timeout), final flush + snapshot
	// on healthy shards, exit 0.
	<-sig
	fmt.Printf("campsrv: draining (up to %v) and shutting down\n", *drain)
	return srv.Shutdown(*drain)
}

// defaultShards picks the auto -shards value: one per core, but never so
// many that a shard's slice of memory drops below the default 8 MiB value
// limit — capacity splits evenly across shards, so over-sharding a small
// cache would reject values that fit fine unsharded. An explicit -shards
// overrides this.
func defaultShards(memBytes int64) int {
	n := runtime.GOMAXPROCS(0)
	if max := int(memBytes / (8 << 20)); n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

// tenantReserves implements flag.Value for the repeatable -tenant-reserve
// name=bytes flag, accumulating into the map handed to Config.TenantReserves.
type tenantReserves map[string]int64

func (r tenantReserves) String() string {
	if len(r) == 0 {
		return ""
	}
	parts := make([]string, 0, len(r))
	for name, b := range r {
		parts = append(parts, fmt.Sprintf("%s=%d", name, b))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (r tenantReserves) Set(s string) error {
	name, size, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("bad tenant reserve %q (want name=bytes)", s)
	}
	b, err := parseSize(size)
	if err != nil {
		return err
	}
	r[name] = b
	return nil
}

// tenantQuotas implements flag.Value for the repeatable -tenant-quota
// name=ops[:bytes] flag, accumulating into Config.TenantQuotas.
type tenantQuotas map[string]kvserver.TenantQuota

func (q tenantQuotas) String() string {
	if len(q) == 0 {
		return ""
	}
	parts := make([]string, 0, len(q))
	for name, tq := range q {
		parts = append(parts, fmt.Sprintf("%s=%d:%d", name, tq.OpsPerSec, tq.MaxBytesInFlight))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (q tenantQuotas) Set(s string) error {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("bad tenant quota %q (want name=ops[:bytes])", s)
	}
	opsStr, bytesStr, hasBytes := strings.Cut(spec, ":")
	ops, err := strconv.ParseInt(opsStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad tenant quota ops %q: %w", s, err)
	}
	var tq kvserver.TenantQuota
	tq.OpsPerSec = ops
	if hasBytes {
		if tq.MaxBytesInFlight, err = parseSize(bytesStr); err != nil {
			return fmt.Errorf("bad tenant quota bytes %q: %w", s, err)
		}
	}
	q[name] = tq
	return nil
}

// parseSize parses sizes like "512KiB", "64MiB", "2GiB" or plain bytes.
func parseSize(s string) (int64, error) {
	units := []struct {
		suffix string
		mult   int64
	}{
		{suffix: "GiB", mult: 1 << 30},
		{suffix: "MiB", mult: 1 << 20},
		{suffix: "KiB", mult: 1 << 10},
		{suffix: "GB", mult: 1e9},
		{suffix: "MB", mult: 1e6},
		{suffix: "KB", mult: 1e3},
		{suffix: "B", mult: 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			n, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("bad size %q: %w", s, err)
			}
			return int64(n * float64(u.mult)), nil
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return n, nil
}
