package bench

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// layerOps is how many operations of the stream the in-process layer
// replays cover, reached from ten seconds of --seconds up.
const layerOps = 200_000

// traced is the separate traced run: the closed loop again with the driver
// recording spans around its own steps and the server's /proc and wire
// counters sampled at the phase boundaries, an untraced closed loop to price
// the tracing, an unpipelined round-trip probe, and the request stream
// replayed through every layer in this process.
func (r *run) traced(recoverS float64) error {
	if err := r.warmUp(); err != nil {
		return err
	}
	rec := NewRecorder()
	sh0, err := r.srv.Stats("stats shards")
	if err != nil {
		return err
	}
	p, err := r.closed(closedShare, rec)
	if err != nil {
		return err
	}
	sh1, err := r.srv.Stats("stats shards")
	if err != nil {
		return err
	}
	tracedRate, _ := p.rate()
	ops := float64(p.ops)
	r.set("traced_ops_per_s", tracedRate)
	r.set("traced_cpu_us_per_op", p.cpuPerOp())
	r.set("driver_cpu_us_per_op", float64(p.driverCPU.Microseconds())/ops)
	costMiss, missRate := r.quality(p.tally)
	r.set("cost_miss_ratio", costMiss)
	r.set("miss_rate", missRate)
	r.set("recover_s", recoverS)

	r.set("kvserver.syscalls_per_op", float64(p.srv.Syscalls)/ops)
	r.set("kvserver.ctxsw_per_op", float64(p.srv.CtxSw)/ops)
	r.set("kvserver.disk_bytes_per_user_byte", float64(p.srv.WriteBytes)/float64(max(p.tally.SetBytes, 1)))
	r.set("kvserver.lock_hold_p99_us", shardMax(sh1, "lock_p99_us"))
	r.set("kvserver.journal_bytes", shardSum(sh1, "journal_bytes"))
	r.set("kvserver.compactions", shardSum(sh1, "compactions")-shardSum(sh0, "compactions"))
	r.set("kvserver.arena_relocated_bytes", shardSum(sh1, "arena_relocated_bytes")-shardSum(sh0, "arena_relocated_bytes"))

	sum := rec.Summary()
	batches := float64(max(sum[spanBatch].Count, 1))
	// The driver's own work: encoding plus verifying outside the socket
	// reads. The batch span's self time is the time it sat in flight.
	self := sum[spanEncode].TotalNs + sum[spanVerify].SelfNs
	r.set("driver.self_us_per_batch", float64(self)/1e3/batches)

	// Same loop, tracing off: the difference is what the spans cost. A
	// replay workload continues its trace here, so its hit rate differs a
	// little from the traced stretch; the other workloads' mix does not change.
	q, err := r.closed(untracedShare, nil)
	if err != nil {
		return err
	}
	untraced, _ := q.rate()
	r.set("trace_overhead_share", 1-tracedRate/untraced)

	o, err := r.latency(tracedOpenShare)
	if err != nil {
		return err
	}
	r.set("p50_us", o.p50)
	r.set("p99_us", o.p99)
	r.set("gen_late_p50_us", o.lateP50)

	rtt, err := r.roundTrips()
	if err != nil {
		return err
	}
	r.set("kvserver.rtt_us", rtt)

	n := min(layerOps, int(layerOps/10*r.Seconds))
	lay, err := runLayers(r.Spec, r.ks, r.streams[0], n, rec, filepath.Join(r.dir, "layers"))
	if err != nil {
		return err
	}
	for k, v := range lay {
		r.set(k, v)
	}
	// The layers on this workload's path, per operation of the stream, over
	// the server CPU one operation costs end to end.
	onPath := lay["proto.parse_ns"] + lay["core.policy_ns"]
	if r.Spec.Mode == "arena" {
		onPath += lay["alloc.arena_ns"]
	}
	if r.Spec.Durable {
		onPath += lay["persist.append_ns"] * float64(r.Spec.Sets) / float64(r.Spec.Sets+r.Spec.GetKeys)
	}
	r.set("unattributed_share", 1-onPath/(p.cpuPerOp()*1e3))

	t := r.total
	for _, d := range r.ds {
		t.add(d.tally)
	}
	r.set("fail_share", float64(t.Failed)/float64(max(t.Attempted, 1)))

	path := filepath.Join(r.Root, "bench", "out", "trace-"+r.Spec.Name+".json")
	extra := map[string]any{
		"workload": r.Spec.Name, "seed": r.Seed, "seconds": r.Seconds,
		"server_proc_delta": p.srv, "shards_before": sh0, "shards_after": sh1, "metrics": r.res.Metrics,
	}
	if lat, err := r.srv.Stats("stats latency"); err == nil {
		extra["stats_latency"] = lat
	}
	if err := rec.WriteFile(path, extra); err != nil {
		return err
	}
	r.logf("spans written to %s", path)
	return nil
}

// roundTrips times one unpipelined single-key get at a time on one fresh
// connection for probeShare of the run; the median in µs is the floor under
// every batch latency.
func (r *run) roundTrips() (float64, error) {
	c, err := r.srv.Dial()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	req := r.ks.AppendGet(nil, []int32{0})
	var us []float64
	end := time.Now().Add(time.Duration(probeShare * r.Seconds * float64(time.Second)))
	for time.Now().Before(end) {
		t := time.Now()
		_ = c.SetDeadline(t.Add(opTimeout))
		if _, err := c.Write(req); err != nil {
			return 0, err
		}
		if err := c.Values(func(_, _ []byte) error { return nil }); err != nil {
			return 0, fmt.Errorf("round-trip probe: %w", err)
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	return Median(us), nil
}

// shardEach visits every shardN_<field> of a "stats shards" reply.
func shardEach(st map[string]string, field string, fn func(v float64)) {
	for k, v := range st {
		if _, f, ok := strings.Cut(k, "_"); ok && f == field && strings.HasPrefix(k, "shard") {
			if n, err := strconv.ParseFloat(v, 64); err == nil {
				fn(n)
			}
		}
	}
}

func shardSum(st map[string]string, field string) (sum float64) {
	shardEach(st, field, func(v float64) { sum += v })
	return sum
}

func shardMax(st map[string]string, field string) (m float64) {
	shardEach(st, field, func(v float64) { m = max(m, v) })
	return m
}
