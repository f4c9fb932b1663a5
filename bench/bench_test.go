package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func TestValueSelfCheck(t *testing.T) {
	for n := 0; n <= 40; n++ {
		v := make([]byte, n)
		FillValue(v, "k17")
		if !CheckValue([]byte("k17"), v) {
			t.Fatalf("value of %d bytes fails its own check", n)
		}
		if n == 0 {
			continue
		}
		if CheckValue([]byte("k18"), v) {
			t.Errorf("%d-byte value of k17 passes as k18's", n)
		}
		v[n-1] ^= 1
		if CheckValue([]byte("k17"), v) {
			t.Errorf("%d-byte value with a flipped last bit passes", n)
		}
	}
	long, short := make([]byte, 24), make([]byte, 16)
	FillValue(long, "k1")
	FillValue(short, "k1")
	if bytes.Equal(long[:16], short) {
		t.Error("a truncated value equals the shorter value: the length is not part of the pattern")
	}
}

// TestGeneratorDeterminism: the same seed gives byte-identical request
// streams, another seed gives another stream.
func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range Specs {
		frames := func(seed int64) []byte {
			ks := NewKeyspace(sp, seed)
			var st Stream = NewMix(sp, ks, seed, 1)
			if sp.Replay {
				st = NewReplay(sp, ks, seed, 4000)
			}
			a := st.Frames(2000)
			if ops := st.Ops(2000); len(ops) != 2000 {
				t.Fatalf("%s: Ops(2000) returned %d", sp.Name, len(ops))
			}
			// The Source the driver consumes yields the same bytes.
			src, got := st.Rewound(), []byte(nil)
			for len(got) < len(a) {
				f, b := src.Next()
				got = append(got, f...)
				src.Done(b, make([]bool, len(b.Keys))) // all hits for Mix; for Replay: all misses
				if sp.Replay {
					break // misses change the next frame; the first one is enough
				}
			}
			if !bytes.HasPrefix(a, got) {
				t.Errorf("%s: Source bytes differ from Frames", sp.Name)
			}
			return a
		}
		a, b, c := frames(7), frames(7), frames(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different request bytes", sp.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds, same request bytes", sp.Name)
		}
	}
}

// TestReplaySetsFollowMisses: every missed key is set, with its cost and
// noreply, in the next frame.
func TestReplaySetsFollowMisses(t *testing.T) {
	sp, _ := SpecByName("evict_bg")
	ks := NewKeyspace(sp, 3)
	src := NewReplay(sp, ks, 3, 64).Rewound()
	_, b := src.Next()
	hit := make([]bool, len(b.Keys))
	hit[0] = true
	src.Done(b, hit)
	frame, next := src.Next()
	if len(next.Sets) != len(b.Keys)-1 || next.Stored != 0 {
		t.Fatalf("next batch carries %d sets expecting %d replies, want %d and 0", len(next.Sets), next.Stored, len(b.Keys)-1)
	}
	want := ks.AppendSet(nil, b.Keys[1], true)
	if !bytes.HasPrefix(frame, want) || !bytes.Contains(want, []byte(" noreply\r\n")) {
		t.Errorf("frame does not start with the noreply set of the first missed key:\n%q", frame[:min(len(frame), 80)])
	}
}

type reply struct {
	key   string
	value string
}

func scan(t *testing.T, rd io.Reader) (stored []error, got []reply, err error) {
	t.Helper()
	s := NewScanner(rd)
	s.buf = make([]byte, 16) // force growth and compaction
	for i := 0; i < 2; i++ {
		stored = append(stored, s.Stored())
	}
	err = s.Values(func(k, v []byte) error {
		got = append(got, reply{string(k), string(v)})
		return nil
	})
	return stored, got, err
}

func TestScannerReplies(t *testing.T) {
	big := strings.Repeat("x", 300)
	wire := "STORED\r\nNOT_STORED\r\nVALUE k1 0 5\r\nhello\r\nVALUE k3 7 300\r\n" + big + "\r\nEND\r\n"
	for name, rd := range map[string]io.Reader{
		"whole":  strings.NewReader(wire),
		"bytes":  iotest.OneByteReader(strings.NewReader(wire)),
		"halves": iotest.HalfReader(strings.NewReader(wire)),
	} {
		stored, got, err := scan(t, rd)
		if stored[0] != nil || !errors.Is(stored[1], ErrNotStored) || err != nil {
			t.Errorf("%s: stored=%v err=%v", name, stored, err)
		}
		// k2 was requested and missed: the reply simply skips it.
		if want := []reply{{"k1", "hello"}, {"k3", big}}; !slices.Equal(got, want) {
			t.Errorf("%s: got %d values %v", name, len(got), got)
		}
	}

	s := NewScanner(strings.NewReader("END\r\nSERVER_ERROR out of memory storing object\r\nEND\r\nVALUE k1 0 5\r\nhel"))
	count := 0
	each := func(_, _ []byte) error { count++; return nil }
	if err := s.Values(each); err != nil || count != 0 {
		t.Errorf("bare END: err=%v values=%d", err, count)
	}
	if err := s.Stored(); !errors.Is(err, ErrRefused) {
		t.Errorf("SERVER_ERROR to a set: %v, want ErrRefused", err)
	}
	if err := s.Values(each); err != nil {
		t.Errorf("stream not in sync after a refusal: %v", err)
	}
	if err := s.Values(each); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short read: %v, want ErrUnexpectedEOF", err)
	}

	s = NewScanner(strings.NewReader("CLIENT_ERROR bad command line format\r\nVALUE k1 0 2\r\nabXX"))
	if err := s.Values(each); !errors.Is(err, ErrRefused) {
		t.Errorf("CLIENT_ERROR to a get: %v, want ErrRefused", err)
	}
	if err := s.Values(each); !errors.Is(err, ErrProtocol) {
		t.Errorf("unterminated data block: %v, want ErrProtocol", err)
	}
}

func TestQuantiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0: 1} {
		if got := Quantile(v, q); got != want {
			t.Errorf("Quantile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %g, want 2.5", got)
	}
}

func TestWindowedMedians(t *testing.T) {
	// Three full 1-s windows and a partial fourth. Each full window holds
	// 1000 batches of 2 ops at 1..1000 µs; the middle window stalls: its
	// latencies are tenfold and it completes half as many batches.
	var samples []Sample
	add := func(w, n int, scale time.Duration) {
		for i := 0; i < n; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			samples = append(samples, Sample{At: at, Lat: time.Duration(i+1) * scale * time.Microsecond, Late: time.Duration(i) * time.Nanosecond, Ops: 2})
		}
	}
	add(0, 1000, 1)
	add(1, 500, 10)
	add(2, 1000, 1)
	add(3, 100, 1) // the run ended 3.4 s in: dropped
	phase := 3400 * time.Millisecond
	rate, n := WindowedRate(samples, time.Second, phase)
	if n != 3 || rate != 2000 {
		t.Errorf("WindowedRate = %g over %d windows, want 2000 over 3", rate, n)
	}
	p99, n, beyond := WindowedQuantile(samples, time.Second, phase, 0.99, func(s Sample) time.Duration { return s.Lat })
	if n != 3 || p99 != 990 || beyond != 5 {
		t.Errorf("WindowedQuantile = %g us over %d windows, %d beyond; want 990, 3, 5", p99, n, beyond)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := NewRecorder()
	at := func(us int) time.Time { return r.origin.Add(time.Duration(us) * time.Microsecond) }
	root := r.Add(spanBatch, 0, 1, at(0), at(0))
	r.Add(spanWrite, root, 1, at(0), at(10))
	verify := r.Add(spanVerify, root, 1, at(40), at(100))
	r.Add(spanWaitRead, verify, 1, at(40), at(90))
	r.End(root, at(100))
	sum := r.Summary()
	if got := sum[spanBatch]; got.TotalNs != 100_000 || got.SelfNs != 30_000 {
		t.Errorf("batch: %+v, want total 100µs self 30µs", got)
	}
	if got := sum[spanVerify]; got.SelfNs != 10_000 {
		t.Errorf("verify: %+v, want self 10µs", got)
	}
}

// benchmarkFile is BENCHMARK.json as the contract defines it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []Def `json:"end_to_end"`
	PerLayer  []Def `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestNamesMatchBenchmarkJSON: the workloads and metrics the code emits are
// exactly those BENCHMARK.json declares, units included.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var specs []string
	for _, sp := range Specs {
		specs = append(specs, sp.Name)
	}
	if !slices.Equal(names, specs) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, specs)
	}
	check := func(kind string, declared, emitted []Def) {
		if !slices.Equal(declared, emitted) {
			t.Errorf("%s: BENCHMARK.json %v\ncode %v", kind, declared, emitted)
		}
	}
	check("end_to_end", bf.EndToEnd, EndToEnd)
	check("per_layer", bf.PerLayer, PerLayer)
}

// TestSmoke runs every workload for one second against a real campsrv
// process and checks that each run is correct and emits exactly the declared
// metric names; evict_bg also does a traced run and must repeat its hit and
// miss counts exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts campsrv processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := BuildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sp Spec, trace bool) Result {
		t.Helper()
		var log bytes.Buffer
		res, err := Run(Config{Root: root, ServerBin: bin, Spec: sp, Seed: 5, Seconds: 1, Trace: trace, Setups: 1, Log: &log})
		if err != nil {
			t.Fatalf("%s trace=%v: %v\n%s", sp.Name, trace, err, log.String())
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", sp.Name, trace, res.Correct, res.Attempted, res.Failed, log.String())
		}
		want := EndToEnd
		if trace {
			want = PerLayer
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s trace=%v: %s emitted as %+v (present=%v), want unit %s", sp.Name, trace, d.Name, m, ok, d.Unit)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics emitted, %d declared", sp.Name, trace, len(res.Metrics), len(want))
		}
		return res
	}
	for _, sp := range Specs {
		res := run(sp, false)
		for _, d := range EndToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", sp.Name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		if !sp.Replay {
			continue
		}
		a, b := run(sp, true), run(sp, true)
		for _, name := range []string{"cost_miss_ratio", "miss_rate"} {
			if a.Metrics[name].Value <= 0 || a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v then %v, want identical and > 0", sp.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+sp.Name+".json")); err != nil {
			t.Errorf("no span file: %v", err)
		}
	}
}
