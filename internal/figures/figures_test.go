package figures

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures/*.golden from the tables the tests compute")

// tiny returns a configuration small enough for unit tests (~1s total).
func tiny() Config {
	return Config{
		Keys:             800,
		Requests:         40000,
		EvolvingTraces:   4,
		EvolvingRequests: 15000,
		Seed:             1,
		Ratios:           []float64{0.1, 0.3, 0.6},
		Precisions:       []uint{1, 3, 5, 0},
	}
}

// checkTable checks tb's shape and compares its text with
// testdata/figures/<id>.golden, so a change that moves any cell of a figure
// shows up as a diff; regenerate the goldens with
//
//	go test ./internal/figures -update
//
// and read the diff. Tables that time something (fig9) use checkShape alone.
func checkTable(t *testing.T, tb *Table, wantRows, wantSeries int) {
	t.Helper()
	checkShape(t, tb, wantRows, wantSeries)
	path := filepath.Join("testdata", "figures", tb.ID+".golden")
	got := tb.Format()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s moved from %s:\n got:\n%s\nwant:\n%s", tb.ID, path, got, want)
	}
}

func checkShape(t *testing.T, tb *Table, wantRows, wantSeries int) {
	t.Helper()
	if tb.ID == "" || tb.Title == "" || tb.XLabel == "" {
		t.Fatalf("table metadata incomplete: %+v", tb)
	}
	if len(tb.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", tb.ID, len(tb.Series), wantSeries)
	}
	if len(tb.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tb.ID, len(tb.Rows), wantRows)
	}
	for i, r := range tb.Rows {
		if len(r.Y) != wantSeries {
			t.Fatalf("%s row %d: %d values, want %d", tb.ID, i, len(r.Y), wantSeries)
		}
	}
	out := tb.Format()
	if !strings.Contains(out, tb.ID) || !strings.Contains(out, tb.XLabel) {
		t.Fatalf("%s: Format output missing headers:\n%s", tb.ID, out)
	}
}

func ratiosInUnitRange(t *testing.T, tb *Table) {
	t.Helper()
	for _, r := range tb.Rows {
		for i, y := range r.Y {
			if y < 0 || y > 1 {
				t.Fatalf("%s: series %s at x=%v out of [0,1]: %v", tb.ID, tb.Series[i], r.X, y)
			}
		}
	}
}

func TestFig4(t *testing.T) {
	tb := Fig4(tiny())
	checkTable(t, tb, 3, 3)
	for _, r := range tb.Rows {
		gdsTextbook, camp := r.Y[0], r.Y[2]
		if camp >= gdsTextbook {
			t.Fatalf("ratio %v: CAMP visits %v not below GDS %v", r.X, camp, gdsTextbook)
		}
	}
	// The textbook GDS series grows with ratio; CAMP's shrinks.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if last.Y[0] <= first.Y[0] {
		t.Errorf("textbook GDS visits should grow with cache ratio: %v -> %v", first.Y[0], last.Y[0])
	}
	if last.Y[2] >= first.Y[2] {
		t.Errorf("CAMP visits should shrink with cache ratio: %v -> %v", first.Y[2], last.Y[2])
	}
}

func TestFig5a(t *testing.T) {
	tb := Fig5a(tiny())
	checkTable(t, tb, 4, 3)
	ratiosInUnitRange(t, tb)
	// Flatness: max-min across precisions small for each ratio.
	for s := 0; s < 3; s++ {
		min, max := 1.0, 0.0
		for _, r := range tb.Rows {
			if r.Y[s] < min {
				min = r.Y[s]
			}
			if r.Y[s] > max {
				max = r.Y[s]
			}
		}
		if max-min > 0.08 {
			t.Errorf("series %d: cost-miss varies too much across precisions: [%v, %v]", s, min, max)
		}
	}
}

func TestFig5b(t *testing.T) {
	tb := Fig5b(tiny())
	checkTable(t, tb, 4, 3)
	// The paper reports at least five non-empty queues even at the very
	// lowest precision. That does not hold here, and no test checks it:
	// this tiny scale reads 3, 3 and 4 at p=1 (testdata/figures/fig5b.golden;
	// the table is built in fig4_5.go), and Fig5b(Default()) reads 4, 4 and 5
	// for ratios 0.05, 0.40 and 0.80. So require >= 3 here.
	for _, r := range tb.Rows {
		for i, y := range r.Y {
			if y < 3 {
				t.Errorf("p=%v series %d: %v queues, want >= 3", r.X, i, y)
			}
		}
	}
}

func TestFig5cAnd5d(t *testing.T) {
	c := Fig5c(tiny())
	checkTable(t, c, 3, 4)
	ratiosInUnitRange(t, c)
	d := Fig5d(tiny())
	checkTable(t, d, 3, 4)
	ratiosInUnitRange(t, d)
	// CAMP (last series) must beat LRU (first) on cost-miss at every
	// ratio, and pooled-uniform should track LRU closely.
	for _, r := range c.Rows {
		if r.Y[3] >= r.Y[0] {
			t.Errorf("fig5c ratio %v: CAMP %.4f not below LRU %.4f", r.X, r.Y[3], r.Y[0])
		}
		diff := r.Y[1] - r.Y[0]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.12 {
			t.Errorf("fig5c ratio %v: pooled-uniform %.4f far from LRU %.4f", r.X, r.Y[1], r.Y[0])
		}
	}
	// Pooled(cost) pays with a worse miss rate than LRU at least at the
	// largest cache (its cheap pool starves).
	last := d.Rows[len(d.Rows)-1]
	if last.Y[2] <= last.Y[0] {
		t.Errorf("fig5d: pooled-cost miss rate %.4f should exceed LRU %.4f at large caches", last.Y[2], last.Y[0])
	}
}

func TestFig5dPools(t *testing.T) {
	tb := Fig5dPools(tiny())
	checkTable(t, tb, 3, 3)
	ratiosInUnitRange(t, tb)
	// The cheapest pool starves even at the largest ratio.
	last := tb.Rows[len(tb.Rows)-1]
	if last.Y[0] < 0.9 {
		t.Errorf("cheap pool miss rate %.3f, want ~1.0", last.Y[0])
	}
	// The expensive pool is comfortable at the largest ratio.
	if last.Y[2] > 0.5 {
		t.Errorf("expensive pool miss rate %.3f, want low", last.Y[2])
	}
}

func TestFig6ab(t *testing.T) {
	a := Fig6a(tiny())
	checkTable(t, a, 3, 3)
	ratiosInUnitRange(t, a)
	b := Fig6b(tiny())
	checkTable(t, b, 3, 3)
	ratiosInUnitRange(t, b)
	// CAMP still wins on cost under the evolving workload where capacity
	// is actually contended (the smallest ratio); at large ratios each
	// trace's working set fits and every policy converges to ~0 misses.
	first := a.Rows[0]
	if first.Y[2] >= first.Y[0] {
		t.Errorf("fig6a ratio %v: CAMP %.4f not below LRU %.4f", first.X, first.Y[2], first.Y[0])
	}
	for _, r := range a.Rows[1:] {
		if r.Y[2] > r.Y[0]+0.01 {
			t.Errorf("fig6a ratio %v: CAMP %.4f far above LRU %.4f", r.X, r.Y[2], r.Y[0])
		}
	}
}

func TestFig6cd(t *testing.T) {
	c := Fig6c(tiny())
	if len(c.Rows) == 0 {
		t.Fatal("fig6c produced no samples")
	}
	checkTable(t, c, len(c.Rows), 3)
	ratiosInUnitRange(t, c)
	// All policies eventually drain TF1 to (near) zero at ratio 0.25.
	last := c.Rows[len(c.Rows)-1]
	for i, name := range c.Series {
		if last.Y[i] > 0.05 {
			t.Errorf("fig6c: %s still holds %.3f of cache for TF1 at the end", name, last.Y[i])
		}
	}
	// LRU drains fastest: find first sample index where each series
	// drops below 10%.
	firstBelow := func(s int) int {
		for i, r := range c.Rows {
			if r.Y[s] < 0.10 {
				return i
			}
		}
		return len(c.Rows)
	}
	if firstBelow(0) > firstBelow(2) {
		t.Errorf("fig6c: LRU should drain TF1 no later than CAMP (lru=%d camp=%d)", firstBelow(0), firstBelow(2))
	}
	d := Fig6d(tiny())
	checkTable(t, d, len(d.Rows), 3)
	ratiosInUnitRange(t, d)
}

func TestFig7(t *testing.T) {
	tb := Fig7(tiny())
	checkTable(t, tb, 3, 2)
	ratiosInUnitRange(t, tb)
	for _, r := range tb.Rows {
		if r.Y[1] >= r.Y[0] {
			t.Errorf("fig7 ratio %v: CAMP miss rate %.4f not below LRU %.4f", r.X, r.Y[1], r.Y[0])
		}
	}
}

func TestFig8(t *testing.T) {
	a := Fig8a(tiny())
	checkTable(t, a, 3, 3)
	ratiosInUnitRange(t, a)
	for _, r := range a.Rows {
		if r.Y[2] >= r.Y[0] {
			t.Errorf("fig8a ratio %v: CAMP cost-miss %.4f not below LRU %.4f", r.X, r.Y[2], r.Y[0])
		}
	}
	b := Fig8b(tiny())
	checkTable(t, b, 3, 3)
	ratiosInUnitRange(t, b)

	c := Fig8c(tiny())
	checkTable(t, c, 4, 2)
	// Without rounding (precision 0 row), the continuous-cost trace has
	// far more queues than the three-cost trace.
	var infRow *Row
	for i := range c.Rows {
		if c.Rows[i].X == 0 {
			infRow = &c.Rows[i]
		}
	}
	if infRow == nil {
		t.Fatal("fig8c missing infinite-precision row")
	}
	if infRow.Y[1] < 1.3*infRow.Y[0] {
		t.Errorf("fig8c: continuous costs should need more queues unrounded: %v vs %v", infRow.Y[1], infRow.Y[0])
	}
	// At p=1 the two series come close together, far below the unrounded
	// counts.
	p1 := c.Rows[0]
	if p1.X != 1 {
		t.Fatalf("first row should be precision 1, got %v", p1.X)
	}
	if p1.Y[1] > 3*p1.Y[0]+10 {
		t.Errorf("fig8c: queue counts should converge at low precision: %v vs %v", p1.Y[1], p1.Y[0])
	}
	if p1.Y[1] >= infRow.Y[1]/4 {
		t.Errorf("fig8c: rounding should slash the continuous trace's queues: p1=%v inf=%v", p1.Y[1], infRow.Y[1])
	}
}

func TestConfigScale(t *testing.T) {
	c := Default().Scale(0.5)
	if c.Keys != 10000 || c.Requests != 200000 {
		t.Fatalf("Scale(0.5) = %+v", c)
	}
	small := Default().Scale(0.000001)
	if small.Keys < 100 || small.Requests < 1000 {
		t.Fatalf("Scale floor broken: %+v", small)
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{in: 3, want: "3"},
		{in: 0.5, want: "0.5"},
		{in: 0.123456789, want: "0.12346"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
