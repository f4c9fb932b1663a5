package figures

import "testing"

// TestFig9All exercises the full client/server replay path at reduced scale
// and checks the paper's qualitative claims.
func TestFig9All(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping network replay in -short mode")
	}
	cfg := tiny()
	cfg.Requests = 24000 // fig9 replays Requests/4 rows over TCP
	tables := Fig9All(cfg)
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	costMiss, runtime, missRate := tables[0], tables[1], tables[2]
	checkShape(t, costMiss, len(Fig9Ratios), 2)
	checkShape(t, runtime, len(Fig9Ratios), 2)
	checkShape(t, missRate, len(Fig9Ratios), 2)
	ratiosInUnitRange(t, costMiss)
	ratiosInUnitRange(t, missRate)

	// 9a: CAMP's cost-miss ratio beats LRU's at the smallest cache sizes.
	first := costMiss.Rows[0]
	if first.Y[1] >= first.Y[0] {
		t.Errorf("fig9a ratio %v: CAMP %.4f not below LRU %.4f", first.X, first.Y[1], first.Y[0])
	}
	// 9b: CAMP is in the same ballpark as LRU (within 2x) — "as fast as
	// LRU" is the paper's claim; loopback timing is noisy, so be lenient.
	for _, r := range runtime.Rows {
		if r.Y[1] > 2.5*r.Y[0]+50 {
			t.Errorf("fig9b ratio %v: CAMP runtime %vms far above LRU %vms", r.X, r.Y[1], r.Y[0])
		}
	}
	// 9c: both policies' miss rates fall as the cache grows.
	firstMR, lastMR := missRate.Rows[0], missRate.Rows[len(missRate.Rows)-1]
	for i, name := range missRate.Series {
		if lastMR.Y[i] >= firstMR.Y[i] {
			t.Errorf("fig9c: %s miss rate should fall with cache size: %.4f -> %.4f",
				name, firstMR.Y[i], lastMR.Y[i])
		}
	}
}
