package kvserver

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"camp/internal/kvclient"
	"camp/internal/persist"
)

// TestFlushAllTenantsKeepsTenantRouting is the regression test for the
// flush_all all isolation escape: the global flush rebuilt each shard's store
// from scratch, and the empty per-store tenant table made every later
// namespaced key route into the default tenant's policy — no reserves, no
// arbitration, wrong accounting — until a restart. Post-flush writes must
// land under their own tenant.
func TestFlushAllTenantsKeepsTenantRouting(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 2})
	gold, err := kvclient.DialWithTenant(s.Addr(), "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	def := dial(t, s)

	if err := gold.Set("pre", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := def.FlushAllTenants(); err != nil {
		t.Fatal(err)
	}

	// The moment of the bug: these namespaced writes used to land in the
	// default policy.
	for i := 0; i < 6; i++ {
		if err := gold.Set(fmt.Sprintf("post%d", i), []byte("gold-v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := def.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	if ts["tenant:gold:items"] != "6" {
		t.Fatalf("gold items after flush_all all = %q, want 6 (keys escaped to another policy)",
			ts["tenant:gold:items"])
	}
	if ts["tenant:default:items"] != "0" || ts["tenant:default:bytes"] != "0" {
		t.Fatalf("default tenant absorbed gold's keys: items=%q bytes=%q",
			ts["tenant:default:items"], ts["tenant:default:bytes"])
	}
	if v, ok, err := gold.Get("post0"); err != nil || !ok || string(v) != "gold-v" {
		t.Fatalf("gold read after flush = %q/%v/%v", v, ok, err)
	}
}

// TestFlushAllTenantsRecoveryReplay covers the replay half of the same bug: a
// journal holding namespaced sets AFTER a keyless KindFlush record must
// rebuild per-tenant state on restart, not funnel those keys into the default
// policy during recovery.
func TestFlushAllTenantsRecoveryReplay(t *testing.T) {
	cfg := Config{
		MemoryBytes: 1 << 20,
		Shards:      2,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncAlways, Logf: t.Logf},
	}
	s1 := startServer(t, cfg)
	gold, err := kvclient.DialWithTenant(s1.Addr(), "gold")
	if err != nil {
		t.Fatal(err)
	}
	silver, err := kvclient.DialWithTenant(s1.Addr(), "silver")
	if err != nil {
		t.Fatal(err)
	}
	def := dial(t, s1)

	if err := gold.Set("a", []byte("old"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := def.FlushAllTenants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("b%d", i)
		if err := gold.Set(k, []byte("g"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := silver.Set(k, []byte("s"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	wantState := captureState(s1)
	wantNames, _, wantTotals := tenantSnapshot(s1)
	gold.Close()
	silver.Close()
	s1.Kill() // crash: recovery replays KindFlush then the namespaced sets

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStateEqual(t, wantState, captureState(s2))
	gotNames, _, gotTotals := tenantSnapshot(s2)
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Errorf("tenant set after replay = %v, want %v", gotNames, wantNames)
	}
	if !reflect.DeepEqual(wantTotals.items, gotTotals.items) {
		t.Errorf("per-tenant items after replay = %v, want %v", gotTotals.items, wantTotals.items)
	}
	if !reflect.DeepEqual(wantTotals.used, gotTotals.used) {
		t.Errorf("per-tenant bytes after replay = %v, want %v", gotTotals.used, wantTotals.used)
	}
	if gotTotals.items["default"] != 0 {
		t.Errorf("default tenant holds %d items after replay, want 0", gotTotals.items["default"])
	}
}

// TestMemshareIsolationSurvivesGlobalFlush re-runs the Memshare isolation
// acceptance scenario after a mid-run flush_all all: the reserve arbitration
// must still protect the quiet tenant — before the fix, the flush silently
// disabled per-tenant policies and the churner could evict the quiet
// tenant's whole working set.
func TestMemshareIsolationSurvivesGlobalFlush(t *testing.T) {
	s := startServer(t, Config{
		MemoryBytes:    256 << 10,
		Shards:         1,
		DisableIQ:      true,
		TenantReserves: map[string]int64{"quiet": 96 << 10},
	})
	// Touch both tenants, then pull the rug: the global flush used to zero
	// the per-store tenant tables for good.
	warm, err := kvclient.DialWithTenant(s.Addr(), "churn")
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Set("warmup", []byte("x"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := warm.FlushAllTenants(); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	if rate := memshareQuietHitRate(t, s, true); rate < 0.99 {
		t.Errorf("quiet hit rate after flush_all all = %v, want ~1 (reserve must still hold)", rate)
	}
	ts, err := dial(t, s).Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	if ev := ts["tenant:quiet:evictions"]; ev != "0" {
		t.Errorf("quiet tenant evictions after flush_all all = %q, want 0", ev)
	}
	if statInt(t, ts, "tenant:churn:evictions") == 0 {
		t.Error("churner saw no evictions: workload not evict-heavy, test proves nothing")
	}
}

// TestAppendPrependMaxValueRecheck pins the size-gate fix: the handler's
// limit check sees only the appended delta, so the concatenated value must be
// re-checked — an over-limit result answers SERVER_ERROR, stores nothing,
// journals nothing, and the original value survives a warm restart.
func TestAppendPrependMaxValueRecheck(t *testing.T) {
	cfg := Config{
		MemoryBytes:   1 << 20,
		MaxValueBytes: 8,
		Persist:       &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncAlways, Logf: t.Logf},
	}
	s1 := startServer(t, cfg)
	c := dial(t, s1)
	if err := c.Set("k", []byte("12345"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The 4-byte delta passes the handler's gate; 5+4 exceeds the limit.
	if ok, err := c.Append("k", []byte("6789")); ok || !errors.Is(err, kvclient.ErrServer) {
		t.Fatalf("oversized append = %v/%v, want SERVER_ERROR", ok, err)
	}
	if ok, err := c.Prepend("k", []byte("0000")); ok || !errors.Is(err, kvclient.ErrServer) {
		t.Fatalf("oversized prepend = %v/%v, want SERVER_ERROR", ok, err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "12345" {
		t.Fatalf("value after rejected concat = %q/%v/%v, want 12345", v, ok, err)
	}
	// A fitting append still works.
	if ok, err := c.Append("k", []byte("678")); !ok || err != nil {
		t.Fatalf("fitting append = %v/%v", ok, err)
	}

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := map[string]expectedItem{"k": {value: "12345678", cost: 1}}
	assertStateEqual(t, want, captureState(s2))
}

// TestTouchSweepsExpiredAndSamplesLock pins the touch-path parity fix: touch
// now opportunistically reclaims expired neighbors and feeds the shard's
// lock-hold histogram, like every other mutating verb.
func TestTouchSweepsExpiredAndSamplesLock(t *testing.T) {
	s, clk := startServerWithClock(t, Config{MemoryBytes: 1 << 20, Shards: 1})
	c := dial(t, s)
	for i := 0; i < 32; i++ {
		if err := c.Set(fmt.Sprintf("ttl%02d", i), []byte("v"), 0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set("durable", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.mu.Lock()
	lockBefore := sh.lockHist.Snapshot().Count
	sh.mu.Unlock()
	clk.advance(1100 * time.Millisecond)
	for i := 0; i < 16; i++ {
		if ok, err := c.Touch("durable", 60); err != nil || !ok {
			t.Fatalf("touch = %v/%v", ok, err)
		}
	}
	sh.mu.Lock()
	reclaimed := sh.store.reclaimed()
	lockAfter := sh.lockHist.Snapshot().Count
	sh.mu.Unlock()
	if reclaimed == 0 {
		t.Error("touch never swept an expired neighbor")
	}
	if lockAfter <= lockBefore {
		t.Errorf("touch never sampled the lock histogram (%d -> %d)", lockBefore, lockAfter)
	}
}

// TestArithBadKeyBeforeReadOnlyGate pins handler ordering: a malformed
// (NUL-bearing) arith key is a client error on any server, replica or not —
// the key check runs before the read-only gate, matching the store path.
func TestArithBadKeyBeforeReadOnlyGate(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	s.readOnly.Store(true)
	conn := rawDial(t, s)
	defer conn.Close()
	if got := sendLine(t, conn, "incr a\x00b 1"); got != "CLIENT_ERROR bad key" {
		t.Fatalf("NUL-key incr on read-only server = %q, want CLIENT_ERROR bad key", got)
	}
	if got := sendLine(t, conn, "incr ok 1"); !strings.HasPrefix(got, "SERVER_ERROR replica is read-only") {
		t.Fatalf("valid incr on read-only server = %q, want read-only SERVER_ERROR", got)
	}
}
