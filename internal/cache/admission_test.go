package cache

import (
	"fmt"
	"testing"
)

func TestAdmissionOneHitWondersBlocked(t *testing.T) {
	inner := NewLRU(100)
	a := NewAdmission(inner)
	// Warm the cache to full with popular keys.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("hot%d", i)
		a.Get(key) // record frequency
		a.Get(key)
		if !a.Set(key, 10, 1) {
			t.Fatalf("popular key %s should be admitted", key)
		}
	}
	if a.Used() != 100 {
		t.Fatalf("Used = %d, want 100", a.Used())
	}
	// A never-seen key must not displace residents.
	a.Get("wonder") // one access only
	if a.Set("wonder", 10, 1) {
		t.Fatal("one-hit wonder should be rejected while the cache is full")
	}
	for i := 0; i < 10; i++ {
		if !a.Contains(fmt.Sprintf("hot%d", i)) {
			t.Fatal("resident keys must be untouched by rejected inserts")
		}
	}
	if a.Stats().Rejected == 0 {
		t.Fatal("rejections must be counted")
	}
}

func TestAdmissionFrequentKeyAdmitted(t *testing.T) {
	a := NewAdmission(NewLRU(100))
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("hot%d", i)
		a.Get(key)
		a.Get(key)
		a.Set(key, 10, 1)
	}
	// The newcomer is requested repeatedly: admit on the later try.
	a.Get("rising")
	a.Get("rising")
	if !a.Set("rising", 10, 1) {
		t.Fatal("twice-seen key should pass the default threshold")
	}
	if !a.Contains("rising") {
		t.Fatal("admitted key should be resident")
	}
}

func TestAdmissionFreeSpaceAlwaysAdmits(t *testing.T) {
	a := NewAdmission(NewLRU(100))
	// Cache empty: even unseen keys are admitted.
	if !a.Set("new", 10, 1) {
		t.Fatal("inserts into free space must not be filtered")
	}
}

func TestAdmissionUpdatesPassThrough(t *testing.T) {
	a := NewAdmission(NewLRU(100))
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("hot%d", i)
		a.Get(key)
		a.Get(key)
		a.Set(key, 10, 1)
	}
	// hot0 is resident; an update (even growing) is not an admission.
	if !a.Set("hot0", 15, 2) {
		t.Fatal("updates to resident keys must bypass the filter")
	}
}

func TestAdmissionMinFrequencyOption(t *testing.T) {
	a := NewAdmission(NewLRU(20), WithMinFrequency(4))
	a.Set("a", 10, 1)
	a.Set("b", 10, 1) // full
	a.Get("c")
	a.Get("c")
	a.Get("c") // 3 accesses < 4
	if a.Set("c", 10, 1) {
		t.Fatal("threshold 4 should reject a thrice-seen key")
	}
	a.Get("c")
	if !a.Set("c", 10, 1) {
		t.Fatal("fourth access should clear the threshold")
	}
	if a.Name() != "lru+admit" {
		t.Fatalf("Name = %s", a.Name())
	}
}

func TestFreqSketchAging(t *testing.T) {
	s := newFreqSketch(64)
	for i := 0; i < 10; i++ {
		s.bump("k")
	}
	if s.estimate("k") < 8 {
		t.Fatalf("estimate = %d, want >= 8", s.estimate("k"))
	}
	before := s.estimate("k")
	s.halve()
	after := s.estimate("k")
	if after != before/2 {
		t.Fatalf("halve: %d -> %d", before, after)
	}
	// Unknown keys estimate low (may collide, so allow small values).
	if s.estimate("never-seen-key-xyz") > 4 {
		t.Fatalf("unseen key estimate too high: %d", s.estimate("never-seen-key-xyz"))
	}
}

func TestFreqSketchWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two width should panic")
		}
	}()
	newFreqSketch(100)
}

// TestAdmissionImprovesScanWorkload shows the §6 hypothesis: with a scan-
// heavy workload, admission control keeps the hot set resident and lifts
// the hit rate.
func TestAdmissionImprovesScanWorkload(t *testing.T) {
	run := func(p Policy) float64 {
		var hits, total int
		for round := 0; round < 60; round++ {
			// Hot set.
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("hot%d", i)
				total++
				if p.Get(key) {
					hits++
				} else {
					p.Set(key, 10, 1)
				}
			}
			// One-pass scan of unique keys.
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("scan-%d-%d", round, i)
				total++
				if p.Get(key) {
					hits++
				} else {
					p.Set(key, 10, 1)
				}
			}
		}
		return float64(hits) / float64(total)
	}
	plain := run(NewLRU(150))
	admitted := run(NewAdmission(NewLRU(150)))
	if admitted <= plain {
		t.Fatalf("admission hit rate %.3f should beat plain %.3f on scans", admitted, plain)
	}
}

// TestAdmissionRepeatable feeds two sketches and two filters the same
// stream: every estimate and every admission decision must agree, or the
// figures built on them change from run to run.
func TestAdmissionRepeatable(t *testing.T) {
	s1, s2 := newFreqSketch(1<<14), newFreqSketch(1<<14)
	for i := 0; i < 60_000; i++ {
		key := fmt.Sprintf("k%d", (i*7919)%30_000)
		s1.bump(key)
		s2.bump(key)
	}
	for i := 0; i < 30_000; i++ {
		key := fmt.Sprintf("k%d", i)
		if e1, e2 := s1.estimate(key), s2.estimate(key); e1 != e2 {
			t.Fatalf("estimate(%s): %d vs %d", key, e1, e2)
		}
	}

	a1, a2 := NewAdmission(NewLRU(2000)), NewAdmission(NewLRU(2000))
	for i := 0; i < 60_000; i++ {
		key := fmt.Sprintf("k%d", (i*i+i*31)%3000)
		if a1.Get(key) != a2.Get(key) {
			t.Fatalf("op %d: Get(%s) disagrees", i, key)
		}
		if !a1.Contains(key) {
			if a1.Set(key, 10+int64(i%7), 1) != a2.Set(key, 10+int64(i%7), 1) {
				t.Fatalf("op %d: Set(%s) disagrees", i, key)
			}
		}
	}
	if a1.Stats() != a2.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a1.Stats(), a2.Stats())
	}
}
