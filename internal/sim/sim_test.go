package sim

import (
	"errors"
	"strings"
	"testing"

	"camp/internal/cache"
	"camp/internal/core"
	"camp/internal/trace"
)

func req(key string, size, cost int64) trace.Request {
	return trace.Request{Key: key, Size: size, Cost: cost}
}

// TestColdRequestExclusion verifies the §3 accounting rule: the first
// request to each key is not counted in miss rate or cost-miss ratio.
func TestColdRequestExclusion(t *testing.T) {
	src := trace.NewSliceSource([]trace.Request{
		req("a", 10, 100), // cold miss: excluded
		req("a", 10, 100), // warm hit
		req("b", 10, 50),  // cold miss: excluded
		req("a", 10, 100), // warm hit
		req("b", 10, 50),  // warm hit
	})
	res, err := Run(cache.NewLRU(100), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 5 || res.ColdRequests != 2 {
		t.Fatalf("Requests=%d Cold=%d", res.Requests, res.ColdRequests)
	}
	if res.Misses != 0 || res.Hits != 3 {
		t.Fatalf("Misses=%d Hits=%d, want 0/3", res.Misses, res.Hits)
	}
	if res.MissRate() != 0 {
		t.Fatalf("MissRate = %v, want 0", res.MissRate())
	}
	if res.TotalCost != 250 {
		t.Fatalf("TotalCost = %d, want 250", res.TotalCost)
	}
	if res.CostMissRatio() != 0 {
		t.Fatalf("CostMissRatio = %v, want 0", res.CostMissRatio())
	}
}

// TestMetricsMath checks a scripted trace with known hits and misses.
func TestMetricsMath(t *testing.T) {
	// LRU capacity 20 holds two 10-byte items.
	src := trace.NewSliceSource([]trace.Request{
		req("a", 10, 1), // cold
		req("b", 10, 2), // cold
		req("c", 10, 4), // cold, evicts a
		req("a", 10, 1), // warm MISS (evicts b), cost 1
		req("c", 10, 4), // warm hit
		req("b", 10, 2), // warm MISS (evicts a), cost 2
		req("c", 10, 4), // warm hit
	})
	res, err := Run(cache.NewLRU(20), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 2 || res.Hits != 2 {
		t.Fatalf("Misses=%d Hits=%d, want 2/2", res.Misses, res.Hits)
	}
	if res.MissRate() != 0.5 {
		t.Fatalf("MissRate = %v, want 0.5", res.MissRate())
	}
	if res.MissCost != 3 || res.TotalCost != 11 {
		t.Fatalf("MissCost=%d TotalCost=%d, want 3/11", res.MissCost, res.TotalCost)
	}
	if got, want := res.CostMissRatio(), 3.0/11.0; got != want {
		t.Fatalf("CostMissRatio = %v, want %v", got, want)
	}
	if res.Evictions != 3 {
		t.Fatalf("Evictions = %d, want 3", res.Evictions)
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := Run(cache.NewLRU(10), trace.NewSliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.MissRate() != 0 || res.CostMissRatio() != 0 {
		t.Fatalf("unexpected metrics on empty trace: %+v", res)
	}
}

func TestRejectedTooLarge(t *testing.T) {
	src := trace.NewSliceSource([]trace.Request{
		req("huge", 1000, 1),
		req("huge", 1000, 1),
	})
	res, err := Run(cache.NewLRU(10), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", res.Rejected)
	}
	if res.Misses != 1 { // second request is warm and misses
		t.Fatalf("Misses = %d, want 1", res.Misses)
	}
}

func TestOccupancyProbe(t *testing.T) {
	// Fill a 30-byte LRU with tf1 keys, then displace them with tf2 keys
	// and watch the fraction fall.
	var reqs []trace.Request
	for _, k := range []string{"tf1-a", "tf1-b", "tf1-c"} {
		reqs = append(reqs, req(k, 10, 1))
	}
	for _, k := range []string{"tf2-a", "tf2-b", "tf2-c"} {
		reqs = append(reqs, req(k, 10, 1))
	}
	res, err := Run(cache.NewLRU(30), trace.NewSliceSource(reqs),
		WithOccupancyProbe(func(key string) bool { return strings.HasPrefix(key, "tf1-") }, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Occupancy) != 6 {
		t.Fatalf("got %d samples, want 6", len(res.Occupancy))
	}
	wantBytes := []int64{10, 20, 30, 20, 10, 0}
	for i, s := range res.Occupancy {
		if s.Bytes != wantBytes[i] {
			t.Fatalf("sample %d: bytes=%d, want %d (samples %+v)", i, s.Bytes, wantBytes[i], res.Occupancy)
		}
		if want := float64(wantBytes[i]) / 30; s.Fraction != want {
			t.Fatalf("sample %d: fraction=%v, want %v", i, s.Fraction, want)
		}
		if s.Requests != int64(i+1) {
			t.Fatalf("sample %d: requests=%d", i, s.Requests)
		}
	}
}

func TestOccupancyProbeWithUpdates(t *testing.T) {
	// The same member key re-inserted with a different size must not
	// double-count.
	reqs := []trace.Request{
		req("tf1-a", 10, 1),
		req("big", 25, 1), // evicts tf1-a (capacity 30)
		req("tf1-a", 20, 1),
	}
	res, err := Run(cache.NewLRU(30), trace.NewSliceSource(reqs),
		WithOccupancyProbe(func(key string) bool { return strings.HasPrefix(key, "tf1-") }, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 0, 20}
	for i, s := range res.Occupancy {
		if s.Bytes != want[i] {
			t.Fatalf("sample %d: bytes=%d, want %d", i, s.Bytes, want[i])
		}
	}
}

func TestGroupByMetrics(t *testing.T) {
	src := trace.NewSliceSource([]trace.Request{
		req("cheap1", 10, 1),
		req("gold1", 10, 100),
		req("cheap1", 10, 1),  // warm hit
		req("gold1", 10, 100), // warm hit
		req("cheap2", 10, 1),  // cold, evicts cheap1 (LRU cap 20)
		req("cheap1", 10, 1),  // warm miss
	})
	group := func(r trace.Request) string {
		if r.Cost >= 100 {
			return "expensive"
		}
		return "cheap"
	}
	res, err := Run(cache.NewLRU(20), src, WithGroupBy(group))
	if err != nil {
		t.Fatal(err)
	}
	cheap := res.Groups["cheap"]
	exp := res.Groups["expensive"]
	if cheap == nil || exp == nil {
		t.Fatalf("missing groups: %+v", res.Groups)
	}
	if cheap.Requests != 2 || cheap.Misses != 1 {
		t.Fatalf("cheap = %+v, want 2 requests 1 miss", cheap)
	}
	if cheap.MissRate() != 0.5 {
		t.Fatalf("cheap miss rate = %v", cheap.MissRate())
	}
	if exp.Requests != 1 || exp.Misses != 0 {
		t.Fatalf("expensive = %+v", exp)
	}
}

type errSource struct{ n int }

func (e *errSource) Next() (trace.Request, bool) {
	if e.n == 0 {
		e.n++
		return req("a", 1, 1), true
	}
	return trace.Request{}, false
}
func (e *errSource) Err() error { return errors.New("boom") }

func TestSourceErrorPropagates(t *testing.T) {
	_, err := Run(cache.NewLRU(10), &errSource{})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestInstrumentationFields checks that CAMP/GDS-specific fields are filled.
func TestInstrumentationFields(t *testing.T) {
	g := trace.NewBGTrace(3, 200, 10000)
	res, err := Run(core.NewCamp(5000), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeapVisits == 0 || res.HeapUpdates == 0 {
		t.Fatalf("CAMP instrumentation missing: %+v", res)
	}
	if res.QueueCount == 0 || res.MaxQueueCount < res.QueueCount {
		t.Fatalf("queue counts missing: %+v", res)
	}
	g2 := trace.NewBGTrace(3, 200, 10000)
	res2, err := Run(core.NewGDS(5000), g2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.HeapVisits == 0 {
		t.Fatal("GDS heap visits missing")
	}
	if res2.QueueCount != 0 {
		t.Fatal("GDS should not report queue counts")
	}
}

// TestAllPoliciesSmoke runs every policy over the same trace and sanity
// checks the aggregate accounting identities.
func TestAllPoliciesSmoke(t *testing.T) {
	pooled, err := cache.NewPooledByCostValues(4000, []int64{1, 100, 10000}, false)
	if err != nil {
		t.Fatal(err)
	}
	policies := []cache.Policy{
		cache.NewLRU(4000),
		pooled,
		core.NewCamp(4000),
		core.NewCamp(4000, core.WithClassicLUpdate()),
		core.NewGDS(4000),
		core.NewGDS(4000, core.WithTextbookDelete()),
		cache.NewARC(4000),
		cache.NewTwoQ(4000),
		cache.NewLFU(4000),
		cache.NewGDWheel(4000),
		cache.NewAdmission(core.NewCamp(4000)),
	}
	for _, p := range policies {
		t.Run(p.Name(), func(t *testing.T) {
			src := trace.NewBGTrace(17, 300, 20000)
			res, err := Run(p, src)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 20000 {
				t.Fatalf("Requests = %d", res.Requests)
			}
			if res.Hits+res.Misses+res.ColdRequests != res.Requests {
				t.Fatalf("accounting mismatch: %+v", res)
			}
			if res.MissRate() < 0 || res.MissRate() > 1 {
				t.Fatalf("MissRate out of range: %v", res.MissRate())
			}
			if res.CostMissRatio() < 0 || res.CostMissRatio() > 1 {
				t.Fatalf("CostMissRatio out of range: %v", res.CostMissRatio())
			}
			if res.FinalUsed > res.Capacity {
				t.Fatalf("FinalUsed %d > Capacity %d", res.FinalUsed, res.Capacity)
			}
		})
	}
}

// TestCampBeatsLRUOnCost is the headline result (Figure 5c): on the skewed
// {1,100,10K} trace, CAMP's cost-miss ratio beats LRU's by a clear margin.
func TestCampBeatsLRUOnCost(t *testing.T) {
	capacity := int64(30000) // ~20% of the unique bytes of this trace

	lruRes, err := Run(cache.NewLRU(capacity), trace.NewBGTrace(23, 500, 100000))
	if err != nil {
		t.Fatal(err)
	}
	campRes, err := Run(core.NewCamp(capacity), trace.NewBGTrace(23, 500, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if campRes.CostMissRatio() >= lruRes.CostMissRatio() {
		t.Fatalf("CAMP cost-miss %.4f should beat LRU %.4f",
			campRes.CostMissRatio(), lruRes.CostMissRatio())
	}
}
