package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camp/internal/cache"
	"camp/internal/rounding"
)

func TestCampBasicHitMiss(t *testing.T) {
	c := NewCamp(100)
	if c.Get("a") {
		t.Fatal("empty cache should miss")
	}
	if !c.Set("a", 10, 5) {
		t.Fatal("Set should succeed")
	}
	if !c.Get("a") {
		t.Fatal("expected hit")
	}
	e, ok := c.Peek("a")
	if !ok || e.Size != 10 || e.Cost != 5 {
		t.Fatalf("Peek = %+v", e)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Sets != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if c.Name() != "camp" || c.Precision() != DefaultPrecision {
		t.Fatalf("Name/Precision = %s/%d", c.Name(), c.Precision())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCampEvictsLowestCostToSize is the core behavioral contract: with equal
// recency, the item with the lowest cost-to-size ratio goes first.
func TestCampEvictsLowestCostToSize(t *testing.T) {
	c := NewCamp(30)
	var evicted []string
	c.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	c.Set("cheap", 10, 1)       // ratio 0.1
	c.Set("mid", 10, 100)       // ratio 10
	c.Set("expensive", 10, 500) // ratio 50
	c.Set("new", 10, 100)       // forces one eviction
	if len(evicted) != 1 || evicted[0] != "cheap" {
		t.Fatalf("evicted %v, want [cheap]", evicted)
	}
	// Another insert evicts mid (lowest remaining ratio), not expensive.
	c.Set("new2", 10, 100)
	if len(evicted) != 2 || evicted[1] != "mid" {
		t.Fatalf("evicted %v, want [cheap mid]", evicted)
	}
	if !c.Contains("expensive") {
		t.Fatal("expensive item must survive")
	}
}

// TestCampSizeMatters: between items of equal cost, the larger one has the
// smaller cost-to-size ratio and is evicted first (Figure 7's effect).
func TestCampSizeMatters(t *testing.T) {
	c := NewCamp(300)
	var evicted []string
	c.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	c.Set("big", 200, 100)  // ratio 0.5
	c.Set("small", 20, 100) // ratio 5
	c.Set("filler", 100, 100)
	if len(evicted) != 1 || evicted[0] != "big" {
		t.Fatalf("evicted %v, want [big]", evicted)
	}
}

// TestCampLRUTieBreak: items in the same queue (same rounded ratio) are
// evicted in LRU order (§2: CAMP breaks ties by LRU).
func TestCampLRUTieBreak(t *testing.T) {
	c := NewCamp(30)
	var evicted []string
	c.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	c.Set("a", 10, 50)
	c.Set("b", 10, 50)
	c.Set("c", 10, 50)
	c.Get("a") // a most recent; b is LRU within the queue
	c.Set("d", 10, 50)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	c.Set("e", 10, 50)
	if len(evicted) != 2 || evicted[1] != "c" {
		t.Fatalf("evicted %v, want [b c]", evicted)
	}
}

// TestCampAging verifies §1's robustness claim: an aged expensive key-value
// pair does not occupy memory indefinitely; it is evicted as competing
// applications issue more requests.
func TestCampAging(t *testing.T) {
	c := NewCamp(10)
	c.Set("gold", 1, 10000)
	// A first wave of cheap traffic must NOT dislodge the expensive item
	// (unlike LRU, which would evict it after 10 inserts).
	for i := 0; i < 500; i++ {
		c.Set(fmt.Sprintf("wave1-%d", i), 1, 1)
	}
	if !c.Contains("gold") {
		t.Fatal("expensive item evicted far too early")
	}
	// Sustained cheap traffic inflates L past gold's priority; eventually
	// gold must fall out.
	for i := 0; i < 100000 && c.Contains("gold"); i++ {
		c.Set(fmt.Sprintf("wave2-%d", i), 1, 1)
	}
	if c.Contains("gold") {
		t.Fatal("aged expensive item should eventually be evicted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCampZeroCostEvictedFirst: zero-cost items occupy the 0 bucket at
// priority L and are the first victims, despite being the newest.
func TestCampZeroCostEvictedFirst(t *testing.T) {
	c := NewCamp(30)
	var evicted []string
	c.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	c.Set("paid", 10, 10)
	c.Set("paid2", 10, 10)
	c.Set("free", 10, 0)
	c.Set("x", 10, 10)
	if len(evicted) != 1 || evicted[0] != "free" {
		t.Fatalf("evicted %v, want [free]", evicted)
	}
}

// TestCampZeroCostTouchTiesWithMinimum documents the Algorithm 1 line-2
// subtlety: touching a zero-cost item lifts L to the minimum priority of the
// other items, so the touched item ties with the cheapest resident and the
// tie breaks by LRU (the older paid item goes first).
func TestCampZeroCostTouchTiesWithMinimum(t *testing.T) {
	c := NewCamp(30)
	var evicted []string
	c.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })
	c.Set("paid", 10, 10)
	c.Set("free", 10, 0)
	c.Set("paid2", 10, 10)
	c.Get("free") // free: H = L(=10) + 0 = 10, newest seq
	c.Set("x", 10, 10)
	if len(evicted) != 1 || evicted[0] != "paid" {
		t.Fatalf("evicted %v, want [paid] (oldest of the H=10 tie)", evicted)
	}
}

func TestCampRejectTooLarge(t *testing.T) {
	c := NewCamp(10)
	if c.Set("big", 11, 1) {
		t.Fatal("item larger than capacity must be rejected")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d", c.Stats().Rejected)
	}
	if !c.Set("fit", 10, 1) {
		t.Fatal("exact-capacity item should fit")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCampDelete(t *testing.T) {
	c := NewCamp(100)
	c.Set("a", 10, 1)
	c.Set("b", 10, 100)
	var evictions int
	c.SetEvictFunc(func(cache.Entry) { evictions++ })
	if !c.Delete("a") || c.Delete("a") {
		t.Fatal("Delete semantics broken")
	}
	if evictions != 0 {
		t.Fatal("Delete must not fire eviction callback")
	}
	if c.Len() != 1 || c.Used() != 10 {
		t.Fatalf("Len=%d Used=%d", c.Len(), c.Used())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCampUpdateChangesBucket(t *testing.T) {
	c := NewCamp(100)
	c.Set("a", 10, 10)
	q1 := c.QueueCount()
	if q1 != 1 {
		t.Fatalf("QueueCount = %d, want 1", q1)
	}
	// Same key, radically different cost: moves to a different queue.
	c.Set("a", 10, 100000)
	if c.QueueCount() != 1 {
		t.Fatalf("QueueCount = %d, want 1 (old queue deleted)", c.QueueCount())
	}
	if c.Stats().Updates != 1 {
		t.Fatalf("Updates = %d, want 1", c.Stats().Updates)
	}
	if c.Len() != 1 || c.Used() != 10 {
		t.Fatalf("Len=%d Used=%d", c.Len(), c.Used())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCampUpdateGrowDoesNotEvictSelf(t *testing.T) {
	c := NewCamp(30)
	c.Set("a", 10, 100)
	c.Set("b", 10, 1)
	// Growing a to 25 bytes exceeds capacity with b resident (10+25>30),
	// so b must be evicted — never a itself.
	if !c.Set("a", 25, 100) {
		t.Fatal("grow should succeed")
	}
	if !c.Contains("a") || c.Contains("b") {
		t.Fatal("growing a should evict b, never a itself")
	}
	if c.Used() != 25 {
		t.Fatalf("Used = %d, want 25", c.Used())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCampQueueCountBound(t *testing.T) {
	// Costs 1..1000 with size 1: integer ratios span 1..1000. With
	// precision p the number of queues must respect Proposition 2.
	for _, p := range []uint{1, 2, 3, 5} {
		c := NewCamp(1<<40, WithPrecision(p))
		for i := 1; i <= 1000; i++ {
			c.Set(fmt.Sprintf("k%d", i), 1, int64(i))
		}
		bound := rounding.DistinctValuesBound(1000, p)
		if got := uint64(c.QueueCount()); got > bound {
			t.Fatalf("p=%d: %d queues exceeds Proposition 2 bound %d", p, got, bound)
		}
		if c.MaxQueueCount() < c.QueueCount() {
			t.Fatalf("p=%d: MaxQueueCount %d < QueueCount %d", p, c.MaxQueueCount(), c.QueueCount())
		}
	}
	// Lower precision must not create more queues than higher precision.
	counts := make(map[uint]int)
	for _, p := range []uint{1, 3, 8} {
		c := NewCamp(1<<40, WithPrecision(p))
		for i := 1; i <= 1000; i++ {
			c.Set(fmt.Sprintf("k%d", i), 1, int64(i))
		}
		counts[p] = c.QueueCount()
	}
	if counts[1] > counts[3] || counts[3] > counts[8] {
		t.Fatalf("queue counts should grow with precision: %v", counts)
	}
}

func TestCampZeroAndNegativeCapacity(t *testing.T) {
	c := NewCamp(0)
	if c.Set("a", 1, 1) {
		t.Fatal("nothing fits in zero capacity")
	}
	neg := NewCamp(-1)
	if neg.Capacity() != 0 {
		t.Fatalf("Capacity = %d, want 0", neg.Capacity())
	}
}

func TestSatAdd(t *testing.T) {
	max := ^uint64(0)
	tests := []struct{ a, b, want uint64 }{
		{a: 1, b: 2, want: 3},
		{a: max, b: 0, want: max},
		{a: max, b: 1, want: max},
		{a: max - 5, b: 10, want: max},
		{a: 1 << 63, b: 1 << 63, want: max},
	}
	for _, tt := range tests {
		if got := satAdd(tt.a, tt.b); got != tt.want {
			t.Errorf("satAdd(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// ---------------------------------------------------------------------------
// Reference model: an independent, O(n)-per-op reimplementation of CAMP's
// semantics (integerized+rounded ratios, L raised to the minimum priority of
// the other items on hits and of the remaining items after evictions,
// eviction of the globally minimum (H, seq) item). The real implementation
// must match it operation for operation.
// ---------------------------------------------------------------------------

type modelItem struct {
	key        string
	size, cost int64
	bucket     uint64
	h          uint64
	seq        uint64
}

type campModel struct {
	capacity, used int64
	precision      uint
	conv           rounding.Converter
	l, seq         uint64
	items          map[string]*modelItem
	evicted        []string
}

func newCampModel(capacity int64, precision uint) *campModel {
	return &campModel{capacity: capacity, precision: precision, items: make(map[string]*modelItem)}
}

func (m *campModel) minOver(skip string) (uint64, *modelItem) {
	var best *modelItem
	for k, it := range m.items {
		if k == skip {
			continue
		}
		if best == nil || it.h < best.h || (it.h == best.h && it.seq < best.seq) {
			best = it
		}
	}
	if best == nil {
		return 0, nil
	}
	return best.h, best
}

func (m *campModel) raiseL(skip string) {
	if h, it := m.minOver(skip); it != nil && h > m.l {
		m.l = h
	}
}

func (m *campModel) get(key string) bool {
	it, ok := m.items[key]
	if !ok {
		return false
	}
	m.raiseL(key)
	it.h = satAdd(m.l, it.bucket)
	m.seq++
	it.seq = m.seq
	return true
}

func (m *campModel) set(key string, size, cost int64) bool {
	if size < 0 {
		size = 0
	}
	if old, ok := m.items[key]; ok {
		m.used -= old.size
		delete(m.items, key)
	}
	if size > m.capacity {
		return false
	}
	for m.used+size > m.capacity {
		_, victim := m.minOver("")
		if victim == nil {
			return false
		}
		delete(m.items, victim.key)
		m.used -= victim.size
		m.evicted = append(m.evicted, victim.key)
		m.raiseL("")
	}
	bucket := rounding.Round(m.conv.IntRatio(cost, size), m.precision)
	m.seq++
	m.items[key] = &modelItem{
		key: key, size: size, cost: cost,
		bucket: bucket, h: satAdd(m.l, bucket), seq: m.seq,
	}
	m.used += size
	return true
}

func (m *campModel) delete(key string) bool {
	it, ok := m.items[key]
	if !ok {
		return false
	}
	m.used -= it.size
	delete(m.items, key)
	return true
}

// TestCampMatchesModel drives random workloads through CAMP and the model
// and requires identical hits, residency, eviction sequences, byte
// accounting and invariants at every step.
func TestCampMatchesModel(t *testing.T) {
	for _, p := range []uint{1, 3, DefaultPrecision, PrecisionInf} {
		p := p
		t.Run(fmt.Sprintf("precision=%d", p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + p)))
			c := NewCamp(400, WithPrecision(p))
			m := newCampModel(400, p)
			var evicted []string
			c.SetEvictFunc(func(e cache.Entry) { evicted = append(evicted, e.Key) })

			costs := []int64{0, 1, 7, 100, 3000, 10000}
			for op := 0; op < 30000; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(50))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5:
					if got, want := c.Get(key), m.get(key); got != want {
						t.Fatalf("op %d: Get(%s) = %v, model %v", op, key, got, want)
					}
				case 6, 7, 8:
					size := int64(rng.Intn(80) + 1)
					cost := costs[rng.Intn(len(costs))]
					if got, want := c.Set(key, size, cost), m.set(key, size, cost); got != want {
						t.Fatalf("op %d: Set(%s,%d,%d) = %v, model %v", op, key, size, cost, got, want)
					}
				default:
					if got, want := c.Delete(key), m.delete(key); got != want {
						t.Fatalf("op %d: Delete(%s) = %v, model %v", op, key, got, want)
					}
				}
				if c.Used() != m.used || c.Len() != len(m.items) {
					t.Fatalf("op %d: Used/Len = %d/%d, model %d/%d", op, c.Used(), c.Len(), m.used, len(m.items))
				}
				if c.L() != m.l {
					t.Fatalf("op %d: L = %d, model %d", op, c.L(), m.l)
				}
				if op%97 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if len(evicted) != len(m.evicted) {
				t.Fatalf("%d evictions, model %d", len(evicted), len(m.evicted))
			}
			for i := range evicted {
				if evicted[i] != m.evicted[i] {
					t.Fatalf("eviction %d: %s, model %s", i, evicted[i], m.evicted[i])
				}
			}
			for k := range m.items {
				if !c.Contains(k) {
					t.Fatalf("model has %s, cache does not", k)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCampHeapArityOption exercises non-default arities end to end.
func TestCampHeapArityOption(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		c := NewCamp(1000, WithHeapArity(d))
		rng := rand.New(rand.NewSource(5))
		for op := 0; op < 5000; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(40))
			if rng.Intn(2) == 0 {
				c.Get(key)
			} else {
				c.Set(key, int64(rng.Intn(50)+1), int64(rng.Intn(1000)))
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("arity %d: %v", d, err)
		}
	}
}

// TestCampTouchSoleMemberAllocatesNothing pins the hit path on a queue of
// one: the queue leaves the heap and re-enters it (two heap updates, as when
// it was deleted and rebuilt), but it is never freed and reallocated.
func TestCampTouchSoleMemberAllocatesNothing(t *testing.T) {
	c := NewCamp(1000)
	nodes := make([]*cache.Node, 3)
	for i, cost := range []int64{1, 100, 10000} {
		nodes[i] = &cache.Node{Size: 10, Cost: cost}
		if !c.Insert(nodes[i]) {
			t.Fatalf("insert of cost %d refused", cost)
		}
	}
	if c.QueueCount() != 3 {
		t.Fatalf("%d queues, want one per cost", c.QueueCount())
	}
	before := c.HeapUpdates()
	const runs = 100
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.Touch(nodes[i%len(nodes)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("a hit on a queue of one allocates %v times", allocs)
	}
	if got := c.HeapUpdates() - before; got != 2*uint64(i) {
		t.Fatalf("%d hits made %d heap updates, want 2 each", i, got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCampInsertAtNewHead pins InsertAt's one heap repair: a node pinned
// below its queue's head becomes that head, and when the new head also sorts
// before every other queue's, the queue must rise to the heap's root.
// Snapshot replay never inserts out of order, so only this test drives it.
func TestCampInsertAtNewHead(t *testing.T) {
	c := NewCamp(1000)
	names := make(map[*cache.Node]string)
	for _, n := range []struct {
		key         string
		prio, class uint64
	}{
		{"low", 2, 2},   // queue 2, head H=2: the heap's root
		{"high", 8, 8},  // queue 8, head H=8
		{"early", 1, 8}, // pinned below queue 8's head and below queue 2's
	} {
		node := &cache.Node{Size: 10}
		names[node] = n.key
		if !c.InsertAt(node, n.prio, n.class) {
			t.Fatalf("InsertAt %s refused", n.key)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after InsertAt %s: %v", n.key, err)
		}
	}
	if v := c.Evict(); v == nil || names[v] != "early" {
		t.Fatalf("first victim %q, want early", names[v])
	}
}

// TestCampFarFewerHeapOpsThanGDS verifies the efficiency claim of §2: CAMP
// touches its heap only when a queue head changes, so on a skewed workload
// it performs a small fraction of GDS's heap updates and node visits.
func TestCampFarFewerHeapOpsThanGDS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCamp(5000)
	g := NewGDS(5000)
	costs := []int64{1, 100, 10000}
	for op := 0; op < 50000; op++ {
		// Skewed key popularity: 70% of requests to 20% of keys.
		var key string
		if rng.Float64() < 0.7 {
			key = fmt.Sprintf("hot%d", rng.Intn(40))
		} else {
			key = fmt.Sprintf("cold%d", rng.Intn(160))
		}
		// Equal sizes yield exactly three ratio buckets, so queue heads
		// change rarely; this is the regime Figure 1b illustrates.
		size := int64(10)
		cost := costs[rng.Intn(len(costs))]
		if !c.Get(key) {
			c.Set(key, size, cost)
		}
		if !g.Get(key) {
			g.Set(key, size, cost)
		}
	}
	if c.HeapUpdates()*2 >= g.HeapUpdates() {
		t.Fatalf("CAMP heap updates %d not far below GDS %d", c.HeapUpdates(), g.HeapUpdates())
	}
	if c.HeapVisits()*2 >= g.HeapVisits() {
		t.Fatalf("CAMP heap visits %d not far below GDS %d", c.HeapVisits(), g.HeapVisits())
	}
	c.ResetHeapVisits()
	if c.HeapVisits() != 0 {
		t.Fatal("ResetHeapVisits should zero the counter")
	}
}

// TestCampApproximatesGDS compares aggregate cost-miss behavior of CAMP at
// several precisions against GDS on a skewed trace (Figure 5a's claim:
// almost no degradation at low precision).
func TestCampApproximatesGDS(t *testing.T) {
	type req struct {
		key  string
		size int64
		cost int64
	}
	rng := rand.New(rand.NewSource(77))
	costs := []int64{1, 100, 10000}
	keyMeta := make(map[string]req)
	var reqs []req
	for i := 0; i < 60000; i++ {
		var key string
		if rng.Float64() < 0.7 {
			key = fmt.Sprintf("hot%d", rng.Intn(60))
		} else {
			key = fmt.Sprintf("cold%d", rng.Intn(240))
		}
		meta, ok := keyMeta[key]
		if !ok {
			meta = req{key: key, size: int64(rng.Intn(90) + 10), cost: costs[rng.Intn(3)]}
			keyMeta[key] = meta
		}
		reqs = append(reqs, meta)
	}

	run := func(p cache.Policy) float64 {
		seen := make(map[string]bool)
		var missCost, totalCost int64
		for _, r := range reqs {
			cold := !seen[r.key]
			seen[r.key] = true
			hit := p.Get(r.key)
			if !hit {
				p.Set(r.key, r.size, r.cost)
			}
			if cold {
				continue
			}
			totalCost += r.cost
			if !hit {
				missCost += r.cost
			}
		}
		return float64(missCost) / float64(totalCost)
	}

	gds := run(NewGDS(4000))
	for _, p := range []uint{1, 2, 5, PrecisionInf} {
		camp := run(NewCamp(4000, WithPrecision(p)))
		diff := camp - gds
		if diff < 0 {
			diff = -diff
		}
		// Figure 5a: almost no variation across precisions.
		if diff > 0.05 {
			t.Errorf("precision %d: cost-miss %.4f vs GDS %.4f (diff %.4f > 0.05)", p, camp, gds, diff)
		}
	}
}

// TestCampCheckInvariantsBranches feeds the checker one corrupt structure
// per failure branch and expects that branch's error, so a checker that
// always passed would fail here.
func TestCampCheckInvariantsBranches(t *testing.T) {
	if err := campFixture().CheckInvariants(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	for _, tc := range campCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			c := campFixture()
			tc.corrupt(c)
			if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
