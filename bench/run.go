package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Config is one run of one workload.
type Config struct {
	Root      string  // repository root (holds cmd/campsrv and bench/)
	ServerBin string  // from BuildServer
	Spec      Spec    // the workload
	Seed      int64   // workload seed; the server only ever sees generated bytes
	Seconds   float64 // measured time: 5% warm-up, 70% closed loop, 25% open loop
	Trace     bool    // the separate traced run that yields the per-layer metrics
	Setups    int     // timed set-ups per run, median reported (0 = 3, or 1 when Trace)
	Pinned    bool    // PinDriver succeeded: the server goes on the other CPUs
	Log       io.Writer
}

// Metric is a value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports. Metrics holds exactly BENCHMARK.json's
// end_to_end names (untraced) or per_layer names (traced).
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Invalid lists reasons the measurement cannot be trusted even though
	// every reply was right (the driver was the bottleneck).
	Invalid []string `json:"-"`
}

// Phase shares of Config.Seconds.
const (
	warmShare   = 0.05
	closedShare = 0.70
	openShare   = 0.25
	// The traced run spends closedShare on the traced closed loop (so that a
	// replay workload sends the same fixed stretch either way), then these
	// on the same loop untraced, to price the tracing; on a short open loop;
	// and on the round-trip probe.
	untracedShare   = 0.10
	tracedOpenShare = 0.10
	probeShare      = 0.02
)

// pipelineDepth is how many batches each connection keeps in flight in the
// closed loop. At one, the server sleeps between batches and what a run
// measures is mostly how the two processes' wake-ups happen to interleave
// (±15% from run to run); at four the server's one processor stays above
// 98% busy, so ops_per_s is its capacity and cpu_us_per_op its cost.
const pipelineDepth = 4

// Window lengths for the medians over windows.
const (
	rateWindow = 250 * time.Millisecond
	p99Window  = 500 * time.Millisecond
)

type run struct {
	Config
	ks      *Keyspace
	streams []Stream // one per connection
	dir     string   // scratch directory of this run, removed at the end
	dataDir string
	srv     *Server
	ds      []*driver
	total   Tally
	res     Result
}

func (r *run) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// set records a metric; report checks that the run set exactly the
// declared ones.
func (r *run) set(name string, v float64) {
	r.res.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

// Run executes one workload once and returns its metrics.
func Run(cfg Config) (res Result, err error) {
	if cfg.Setups == 0 {
		cfg.Setups = 3
		if cfg.Trace {
			cfg.Setups = 1 // a traced run reports no setup_s
		}
	}
	r := &run{Config: cfg, ks: NewKeyspace(cfg.Spec, cfg.Seed)}
	r.res.Metrics = make(map[string]Metric)
	out := filepath.Join(cfg.Root, "bench", "out")
	r.dir = filepath.Join(out, fmt.Sprintf("run-%d-%s", os.Getpid(), cfg.Spec.Name))
	r.dataDir = filepath.Join(r.dir, "data")
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(r.dir)
	defer func() {
		if r.srv != nil {
			r.srv.Kill()
		}
	}()
	r.header()
	r.generate()

	var setups, heaps, recovers []float64
	for i := 0; i < cfg.Setups; i++ {
		if r.srv != nil {
			r.teardown()
		}
		setup, recover, err := r.setup()
		if err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		heap, err := r.heapPerItem()
		if err != nil {
			return res, err
		}
		setups, heaps, recovers = append(setups, setup), append(heaps, heap), append(recovers, recover)
	}
	r.logf("setup_s samples: %v", setups)

	if cfg.Trace {
		err = r.traced(Median(recovers))
	} else {
		r.set("setup_s", Median(setups))
		r.set("heap_bytes_per_item", Median(heaps))
		err = r.measured()
	}
	if err != nil {
		return res, err
	}
	r.disconnect()
	r.res.Attempted, r.res.Failed = r.total.Attempted, r.total.Failed
	r.res.Correct = r.res.Failed == 0
	if r.total.Err != nil {
		r.logf("first failure: %v", r.total.Err)
	}
	return r.res, r.report()
}

func (r *run) header() {
	sp := r.Spec
	r.logf("== %s  seed=%d seconds=%g trace=%v", sp.Name, r.Seed, r.Seconds, r.Trace)
	r.logf("   why: %s", sp.Why)
	r.logf("   conditions: nproc=%d driver GOMAXPROCS=%d server GOMAXPROCS=%d conns=%d cpu-pinned=%v %s loopback TCP, scratch on %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), serverProcs(), sp.Conns, r.Pinned, runtime.Version(), FSType(r.dir))
	r.logf("   server: campsrv %s", strings.Join(r.serverArgs(), " "))
}

// serverProcs leaves one core to the driver.
func serverProcs() int { return max(1, runtime.NumCPU()-1) }

func (r *run) serverArgs() []string {
	sp := r.Spec
	args := append([]string{}, ServerFlags...)
	args = append(args, "-mode", sp.Mode, "-mem", sp.Mem)
	if sp.Durable {
		args = append(args, "-data-dir", r.dataDir, "-fsync", "everysec", "-aof-limit", sp.AOFLimit)
	}
	return args
}

func (r *run) start() (err error) {
	r.srv, err = StartServer(r.ServerBin, r.serverArgs(), serverProcs(), r.Pinned, filepath.Join(r.dir, "server.log"))
	return err
}

// disconnect closes the connections, keeping their counts.
func (r *run) disconnect() {
	for _, d := range r.ds {
		r.total.add(d.tally)
		d.Close()
	}
	r.ds = nil
}

func (r *run) teardown() {
	r.disconnect()
	r.srv.Kill()
	r.srv = nil
	os.RemoveAll(r.dataDir)
}

// setup times exec → listening → deterministic preload → acknowledged. On
// a durable workload it goes on: SIGKILL, re-exec on the same data
// directory, first version reply (recover_s), and a read-back that must find
// every preloaded key.
func (r *run) setup() (setupS, recoverS float64, err error) {
	sp := r.Spec
	began := time.Now()
	if err := r.start(); err != nil {
		return 0, 0, err
	}
	if err := r.connect(); err != nil {
		return 0, 0, err
	}
	if sp.Replay {
		r.ds[0].closedLoop(time.Now(), 0, sp.Preload/sp.GetKeys, pipelineDepth)
		r.ds[0].samples = r.ds[0].samples[:0]
		if err := r.ds[0].tally.Err; r.ds[0].dead {
			return 0, 0, fmt.Errorf("preload replay: %w", err)
		}
	} else {
		if err := r.spread(func(d *driver, from, to int) error { return preload(d.Conn, r.ks, from, to) }); err != nil {
			return 0, 0, err
		}
		if err := r.checkItems(); err != nil {
			return 0, 0, err
		}
	}
	if sp.Durable {
		r.disconnect()
		r.srv.Kill()
		if err := r.start(); err != nil {
			return 0, 0, fmt.Errorf("restart on %s: %w", r.dataDir, err)
		}
		up, err := r.srv.WaitVersion(60 * time.Second)
		if err != nil {
			return 0, 0, err
		}
		recoverS = up.Sub(r.srv.Started).Seconds()
		if err := r.connect(); err != nil {
			return 0, 0, err
		}
		found := make([]int, len(r.ds))
		err = r.spread(func(d *driver, from, to int) (err error) {
			found[d.id], err = readBack(d.Conn, r.ks, from, to)
			return err
		})
		if err != nil {
			return 0, 0, fmt.Errorf("read-back after SIGKILL: %w", err)
		}
		n := 0
		for _, f := range found {
			n += f
		}
		r.total.Attempted += int64(len(r.ks.Keys))
		if lost := len(r.ks.Keys) - n; lost > 0 {
			r.total.fail(lost, fmt.Errorf("%d acknowledged keys missing after SIGKILL and recovery", lost))
		}
	}
	return time.Since(began).Seconds(), recoverS, nil
}

// generate encodes every connection's request stream, once per run and
// outside any timed phase.
func (r *run) generate() {
	sp := r.Spec
	for i := 0; i < sp.Conns; i++ {
		if sp.Replay {
			n := sp.Preload + int(sp.ReplayRate*r.Seconds) + int(sp.OpenRate*r.Seconds)*sp.GetKeys
			r.streams = append(r.streams, NewReplay(sp, r.ks, r.Seed, n))
		} else {
			r.streams = append(r.streams, NewMix(sp, r.ks, r.Seed, i))
		}
	}
}

// connect opens the workload's connections, each at the start of its stream.
func (r *run) connect() error {
	sp := r.Spec
	for i := 0; i < sp.Conns; i++ {
		c, err := r.srv.Dial()
		if err != nil {
			return err
		}
		r.ds = append(r.ds, newDriver(c, r.ks, r.streams[i].Rewound(), i, sp.Replay))
	}
	return nil
}

// spread runs fn over an equal share of the keys on every connection.
func (r *run) spread(fn func(d *driver, from, to int) error) error {
	errs := make([]error, len(r.ds))
	n := len(r.ks.Keys)
	each(r.ds, func(d *driver) {
		errs[d.id] = fn(d, d.id*n/len(r.ds), (d.id+1)*n/len(r.ds))
	})
	return errors.Join(errs...)
}

func (r *run) items() (int64, error) {
	st, err := r.srv.Stats("stats")
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(st["curr_items"], 10, 64)
}

// checkItems is the quiesce step: every preloaded key is resident.
func (r *run) checkItems() error {
	n, err := r.items()
	if err != nil {
		return err
	}
	if n != int64(len(r.ks.Keys)) {
		return fmt.Errorf("preload: server holds %d items, want %d", n, len(r.ks.Keys))
	}
	return nil
}

func (r *run) heapPerItem() (float64, error) {
	heap, err := r.srv.HeapInuse()
	if err != nil {
		return 0, err
	}
	n, err := r.items()
	if err != nil || n == 0 {
		return 0, fmt.Errorf("curr_items = %d: %v", n, err)
	}
	return float64(heap) / float64(n), nil
}

// phase is one closed loop with the server's and the driver's /proc deltas.
type phase struct {
	samples   []Sample
	elapsed   time.Duration
	ops       int64
	tally     Tally // this phase only
	srv       ProcSample
	driverCPU time.Duration
}

// closed runs a closed loop over every connection for share of Seconds; a
// replay workload instead sends the fixed number of batches that takes
// about that long, so its hit and miss counts repeat exactly.
func (r *run) closed(share float64, rec *Recorder) (phase, error) {
	var p phase
	dur := time.Duration(share * r.Seconds * float64(time.Second))
	batches := 0
	if r.Spec.Replay {
		batches = max(1, int(r.Spec.ReplayRate*share*r.Seconds)/r.Spec.GetKeys)
	}
	before := make([]Tally, len(r.ds))
	for i, d := range r.ds {
		before[i], d.samples, d.rec = d.tally, d.samples[:0], rec
	}
	s0, err := SampleProc(r.srv.Pid())
	if err != nil {
		return p, err
	}
	c0, start := selfCPU(), time.Now()
	each(r.ds, func(d *driver) { d.closedLoop(start, dur, batches, pipelineDepth) })
	p.elapsed, p.driverCPU = time.Since(start), selfCPU()-c0
	s1, err := SampleProc(r.srv.Pid())
	if err != nil {
		return p, err
	}
	p.srv = ProcSample{CPU: s1.CPU - s0.CPU, Syscalls: s1.Syscalls - s0.Syscalls, CtxSw: s1.CtxSw - s0.CtxSw, WriteBytes: s1.WriteBytes - s0.WriteBytes}
	for i, d := range r.ds {
		d.rec = nil
		p.samples = append(p.samples, d.samples...)
		p.tally.add(d.tally.sub(before[i]))
		for _, s := range d.samples {
			p.ops += int64(s.Ops)
		}
	}
	if p.ops == 0 {
		return p, fmt.Errorf("closed loop completed no operation: %v", p.tally.Err)
	}
	return p, nil
}

// rate is the phase's ops_per_s: the median over 250-ms windows, or plain
// ops ÷ elapsed when the phase is shorter than one window.
func (p phase) rate() (float64, int) {
	if rate, n := WindowedRate(p.samples, rateWindow, p.elapsed); n > 0 {
		return rate, n
	}
	return float64(p.ops) / p.elapsed.Seconds(), 0
}

func (p phase) cpuPerOp() float64 { return float64(p.srv.CPU.Microseconds()) / float64(p.ops) }

// settlePasses is how many times the warm-up overwrites the whole key
// population before any timed phase.
const settlePasses = 2

// warmUp brings the server to the memory footprint it has in steady state,
// then runs a short untimed closed loop. After the preload the Go heap (or
// the arena) is as small as it will ever be; its first growth to the
// steady-state size touches fresh pages, and a fresh page costs this kind of
// virtual machine ten times a recycled one. Overwriting every key twice
// makes that growth happen here rather than inside the closed loop, where
// it showed up as a 10% run-to-run swing in cpu_us_per_op. A replay workload
// needs none: its cache is full and churning when set-up ends.
func (r *run) warmUp() error {
	if !r.Spec.Replay {
		for i := 0; i < settlePasses; i++ {
			if err := r.spread(func(d *driver, from, to int) error { return preload(d.Conn, r.ks, from, to) }); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	_, err := r.closed(warmShare, nil)
	return err
}

// measured is the untraced run: warm-up, closed loop, open loop.
func (r *run) measured() error {
	if err := r.warmUp(); err != nil {
		return err
	}
	p, err := r.closed(closedShare, nil)
	if err != nil {
		return err
	}
	rate, nw := p.rate()
	r.set("ops_per_s", rate)
	r.set("cpu_us_per_op", p.cpuPerOp())
	r.logf("closed loop: %d ops in %v over %d conns, %d windows of %v; server cpu %v",
		p.ops, p.elapsed.Round(time.Millisecond), len(r.ds), nw, rateWindow, p.srv.CPU)
	driverCPU := float64(p.driverCPU.Microseconds()) / float64(p.ops)
	r.logf("driver_cpu_us_per_op %.4f us (server %.4f us)", driverCPU, p.cpuPerOp())
	if driverCPU >= p.cpuPerOp() {
		r.res.Invalid = append(r.res.Invalid, fmt.Sprintf("driver CPU per op %.3f us is not below the server's %.3f us", driverCPU, p.cpuPerOp()))
	}
	r.quality(p.tally)

	_, err = r.latency(openShare)
	return err
}

// openStats are the open loop's results, in µs: medians over 500-ms windows
// of each window's quantile of batch latency from the due time, and of the
// generator's lateness.
type openStats struct {
	p50, p99, lateP50, lateP99 float64
}

// latency runs the open loop for share of Seconds and prints its
// diagnostics. The run is invalid if the generator's median lateness
// exceeds a tenth of the median latency: the driver, not the server, would
// then be what the latency measures.
func (r *run) latency(share float64) (openStats, error) {
	samples, dur, err := r.open(share)
	if err != nil {
		return openStats{}, err
	}
	lat := func(s Sample) time.Duration { return s.Lat }
	late := func(s Sample) time.Duration { return s.Late }
	var o openStats
	var nw, beyond int
	o.p50, _, _ = quantileOrWhole(samples, dur, 0.50, lat)
	o.p99, nw, beyond = quantileOrWhole(samples, dur, 0.99, lat)
	o.lateP50, _, _ = quantileOrWhole(samples, dur, 0.50, late)
	o.lateP99, _, _ = quantileOrWhole(samples, dur, 0.99, late)
	r.logf("open loop: %g batches/s offered for %v, %d batches answered, %d windows of %v",
		r.Spec.OpenRate, dur, len(samples), nw, p99Window)
	r.logf("p50_us %.2f us   p99_us %.2f us (>= %d samples beyond p99 in every window)", o.p50, o.p99, beyond)
	r.logf("gen_late_p50_us %.2f us   gen_late_p99_us %.2f us", o.lateP50, o.lateP99)
	if o.lateP50 > 0.10*o.p50 {
		r.res.Invalid = append(r.res.Invalid, fmt.Sprintf("generator lateness p50 %.1f us exceeds 10%% of p50_us %.1f us", o.lateP50, o.p50))
	}
	return o, nil
}

func quantileOrWhole(samples []Sample, dur time.Duration, q float64, pick func(Sample) time.Duration) (float64, int, int) {
	if us, n, beyond := WindowedQuantile(samples, p99Window, dur, q, pick); n > 0 {
		return us, n, beyond
	}
	us, _, beyond := WindowedQuantile(samples, dur, dur, q, pick)
	return us, 0, beyond
}

// open runs the open loop: batches are due on a fixed schedule, the
// connections' schedules interleaved.
func (r *run) open(share float64) ([]Sample, time.Duration, error) {
	dur := time.Duration(share * r.Seconds * float64(time.Second))
	interval := time.Duration(float64(len(r.ds)) / r.Spec.OpenRate * float64(time.Second))
	origin := time.Now().Add(time.Millisecond)
	end := origin.Add(dur)
	errs := make([]error, len(r.ds))
	for _, d := range r.ds {
		d.samples = d.samples[:0]
	}
	each(r.ds, func(d *driver) {
		first := origin.Add(interval * time.Duration(d.id) / time.Duration(len(r.ds)))
		errs[d.id] = d.openLoop(origin, first, end, interval)
	})
	var samples []Sample
	for _, d := range r.ds {
		samples = append(samples, d.samples...)
	}
	return samples, dur, errors.Join(errs...)
}

// quality logs the paper's §3 metrics for a phase.
func (r *run) quality(t Tally) (costMiss, missRate float64) {
	if t.WarmReq > 0 {
		missRate = float64(t.WarmMiss) / float64(t.WarmReq)
	}
	if t.WarmCost > 0 {
		costMiss = float64(t.MissCost) / float64(t.WarmCost)
	}
	r.logf("cost_miss_ratio %.6f  miss_rate %.6f  (%d warm requests, %d warm misses)", costMiss, missRate, t.WarmReq, t.WarmMiss)
	return costMiss, missRate
}

// report prints the run's metrics and holds them to the declared list.
func (r *run) report() error {
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	for _, why := range r.res.Invalid {
		r.logf("INVALID: %s", why)
	}
	if len(r.res.Metrics) != len(defs) {
		return fmt.Errorf("run set %d metrics, %d are declared", len(r.res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("run did not measure %s", d.Name)
		}
		r.logf("%-34s %14.4f %s", d.Name, m.Value, m.Unit)
	}
	if !r.Trace {
		share := float64(r.res.Failed) / float64(max(r.res.Attempted, 1))
		r.logf("%-34s %14.6f ratio (%d failed of %d attempted)", "fail_share", share, r.res.Failed, r.res.Attempted)
	}
	return nil
}
