package alloc

import (
	"fmt"
	"testing"
)

func newTestSlab(t *testing.T, totalMem int64, opts ...SlabOption) *SlabAllocator {
	t.Helper()
	a, err := NewSlabAllocator(totalMem, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSlabConstructionErrors(t *testing.T) {
	if _, err := NewSlabAllocator(100); err == nil {
		t.Fatal("memory below one slab must error")
	}
	if _, err := NewSlabAllocator(1<<21, WithSlabSize(0)); err == nil {
		t.Fatal("zero slab size must error")
	}
	if _, err := NewSlabAllocator(1<<21, WithMinChunk(0)); err == nil {
		t.Fatal("zero min chunk must error")
	}
	if _, err := NewSlabAllocator(1<<21, WithMinChunk(1<<22)); err == nil {
		t.Fatal("min chunk above slab size must error")
	}
	if _, err := NewSlabAllocator(1<<21, WithGrowFactor(1.0)); err == nil {
		t.Fatal("growth factor 1 must error")
	}
}

// TestSlabClassLayout checks the paper's §5 description: class 1 chunks are
// 120 bytes (8737+ per 1 MiB slab) and each class grows by ~1.25x; class 2
// is 152 bytes holding 6898 chunks.
func TestSlabClassLayout(t *testing.T) {
	a := newTestSlab(t, 4<<20)
	if got := a.ChunkSize(0); got != 120 {
		t.Fatalf("class 0 chunk = %d, want 120", got)
	}
	if got := a.ChunkSize(1); got != 150 {
		// 120 * 1.25 = 150; the paper quotes 152 due to metadata
		// padding, which we do not model.
		t.Fatalf("class 1 chunk = %d, want 150", got)
	}
	if got := int((1 << 20) / a.ChunkSize(0)); got != 8738 {
		t.Fatalf("chunks per slab for class 0 = %d, want 8738", got)
	}
	// Classes grow to the slab size and the last class holds one chunk.
	last := a.ChunkSize(a.NumClasses() - 1)
	if last != 1<<20 {
		t.Fatalf("largest class = %d, want slab size", last)
	}
	// Monotone growing sizes.
	for i := 1; i < a.NumClasses(); i++ {
		if a.ChunkSize(i) <= a.ChunkSize(i-1) {
			t.Fatalf("class sizes not increasing at %d", i)
		}
	}
}

func TestSlabClassFor(t *testing.T) {
	a := newTestSlab(t, 2<<20)
	tests := []struct {
		size      int64
		wantChunk int64
	}{
		{size: 1, wantChunk: 120},
		{size: 120, wantChunk: 120},
		{size: 121, wantChunk: 150},
		{size: 150, wantChunk: 150},
		{size: 151, wantChunk: 187},
	}
	for _, tt := range tests {
		class, err := a.ClassFor(tt.size)
		if err != nil {
			t.Fatalf("ClassFor(%d): %v", tt.size, err)
		}
		if got := a.ChunkSize(class); got != tt.wantChunk {
			t.Fatalf("ClassFor(%d) chunk = %d, want %d", tt.size, got, tt.wantChunk)
		}
	}
	if _, err := a.ClassFor(2 << 20); err == nil {
		t.Fatal("oversized item must error")
	}
}

func TestSlabAllocFreeReuse(t *testing.T) {
	a := newTestSlab(t, 1<<20, WithSlabSize(1<<10), WithMinChunk(100), WithGrowFactor(2))
	h1, err := a.Alloc("a", 90)
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := a.Owner(h1); !ok || owner != "a" {
		t.Fatalf("Owner = %q, %v", owner, ok)
	}
	h2, err := a.Alloc("b", 90)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("distinct allocations share a chunk")
	}
	if got := HandleOf(h2.Word()); got != h2 {
		t.Fatalf("HandleOf(Word) = %+v, want %+v", got, h2)
	}
	a.Free(h1)
	if _, ok := a.Owner(h1); ok {
		t.Fatal("freed chunk still owned")
	}
	h3, err := a.Alloc("c", 50)
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 {
		t.Fatalf("free chunk not reused: got %+v want %+v", h3, h1)
	}
}

func TestSlabDoubleFreePanics(t *testing.T) {
	a := newTestSlab(t, 1<<20, WithSlabSize(1<<10))
	h, err := a.Alloc("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	a.Free(h)
}

// TestSlabCalcification reproduces §5's failure mode: once every slab is
// assigned to the small class, large allocations fail even though most
// memory is free.
func TestSlabCalcification(t *testing.T) {
	// 4 slabs of 1 KiB; classes 100 and 200... (factor 2: 100, 200, 400,
	// 800, 1024).
	a := newTestSlab(t, 4<<10, WithSlabSize(1<<10), WithMinChunk(100), WithGrowFactor(2))
	// Consume all four slabs with small items.
	var handles []Handle
	for i := 0; ; i++ {
		h, err := a.Alloc(fmt.Sprintf("small%d", i), 100)
		if err != nil {
			break
		}
		handles = append(handles, h)
	}
	if a.SlabsAllocated() != 4 {
		t.Fatalf("slabs = %d, want 4", a.SlabsAllocated())
	}
	// Free most small items: plenty of free memory, all in class 0.
	for _, h := range handles[:len(handles)-1] {
		a.Free(h)
	}
	// A large item still cannot be placed: calcification.
	if _, err := a.Alloc("big", 800); err != ErrNoMemory {
		t.Fatalf("expected ErrNoMemory from calcified allocator, got %v", err)
	}
	bigClass, err := a.ClassFor(800)
	if err != nil {
		t.Fatal(err)
	}
	if a.HasFreeChunk(bigClass) {
		t.Fatal("big class should have no free chunks")
	}

	// Twemcache's escape hatch: random slab eviction.
	evicted, ok := a.ReassignRandomSlab(bigClass)
	if !ok {
		t.Fatal("ReassignRandomSlab should find a donor")
	}
	// The donor slab held at most one live small item.
	if len(evicted) > 1 {
		t.Fatalf("evicted %d owners, want <= 1", len(evicted))
	}
	if _, err := a.Alloc("big", 800); err != nil {
		t.Fatalf("large alloc after slab reassignment: %v", err)
	}
}

func TestSlabReassignNoDonor(t *testing.T) {
	a := newTestSlab(t, 1<<10, WithSlabSize(1<<10), WithMinChunk(100), WithGrowFactor(2))
	if _, err := a.Alloc("x", 100); err != nil {
		t.Fatal(err)
	}
	// Only one slab exists and it belongs to class 0 already.
	if _, ok := a.ReassignRandomSlab(0); ok {
		t.Fatal("no donor should be available for the same class")
	}
}

func TestSlabStats(t *testing.T) {
	a := newTestSlab(t, 2<<10, WithSlabSize(1<<10), WithMinChunk(100), WithGrowFactor(2))
	if _, err := a.Alloc("a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc("b", 900); err != nil {
		t.Fatal(err)
	}
	stats := a.Stats()
	var used, slabs int
	for _, s := range stats {
		used += s.UsedChunks
		slabs += s.Slabs
	}
	if used != 2 {
		t.Fatalf("used chunks = %d, want 2", used)
	}
	if slabs != 2 || a.SlabsAllocated() != 2 || a.MaxSlabs() != 2 {
		t.Fatalf("slabs = %d/%d/%d, want 2/2/2", slabs, a.SlabsAllocated(), a.MaxSlabs())
	}
}

// TestSlabChurn stress-tests alloc/free cycles with accounting checks.
func TestSlabChurn(t *testing.T) {
	a := newTestSlab(t, 8<<10, WithSlabSize(1<<10), WithMinChunk(64), WithGrowFactor(2), WithSlabSeed(3))
	live := make(map[string]Handle)
	sizes := []int64{60, 120, 250, 500, 1000}
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("k%d", i%200)
		if h, ok := live[key]; ok {
			a.Free(h)
			delete(live, key)
			continue
		}
		h, err := a.Alloc(key, sizes[i%len(sizes)])
		if err != nil {
			// Out of memory: drop an arbitrary live item and retry.
			for k, lh := range live {
				a.Free(lh)
				delete(live, k)
				break
			}
			continue
		}
		live[key] = h
	}
	stats := a.Stats()
	var used int
	for _, s := range stats {
		used += s.UsedChunks
	}
	if used != len(live) {
		t.Fatalf("allocator reports %d used chunks, expected %d", used, len(live))
	}
	for key, h := range live {
		owner, ok := a.Owner(h)
		if !ok || owner != key {
			t.Fatalf("handle for %s lost (owner=%q ok=%v)", key, owner, ok)
		}
	}
}
