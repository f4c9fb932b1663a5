package kvserver

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"camp/internal/kvclient"
)

// TestTenantQuotaGCRA pins the rate limiter's arithmetic with a synthetic
// clock: at 4 ops/sec (250ms interval, 1s burst) exactly 4 back-to-back ops
// pass from idle, the 5th is denied, and 300ms later one slot has refilled.
func TestTenantQuotaGCRA(t *testing.T) {
	tq := newTenantQuota(TenantQuota{OpsPerSec: 4})
	now := time.Now().UnixNano()
	for i := 0; i < 4; i++ {
		if !tq.allowOp(now) {
			t.Fatalf("op %d denied inside the burst", i)
		}
	}
	if tq.allowOp(now) {
		t.Fatal("5th back-to-back op admitted past the burst")
	}
	if tq.allowOp(now + 200*int64(time.Millisecond)) {
		t.Fatal("op admitted before an interval elapsed")
	}
	if !tq.allowOp(now + 300*int64(time.Millisecond)) {
		t.Fatal("op denied after an interval refilled a slot")
	}

	// A nil quota and a rate-less quota are unlimited.
	var unlimited *tenantQuota
	if !unlimited.allowOp(now) || !unlimited.acquireBytes(1<<30) {
		t.Fatal("nil quota must admit everything")
	}
	if !newTenantQuota(TenantQuota{MaxBytesInFlight: 10}).allowOp(now) {
		t.Fatal("quota without a rate must admit ops")
	}
}

// TestTenantQuotaBytesInFlight pins the payload gauge: acquisitions are
// admitted up to the cap, released bytes free the budget, and a single
// payload larger than the cap can never pass.
func TestTenantQuotaBytesInFlight(t *testing.T) {
	tq := newTenantQuota(TenantQuota{MaxBytesInFlight: 100})
	if !tq.acquireBytes(60) || !tq.acquireBytes(40) {
		t.Fatal("acquisitions within the cap denied")
	}
	if tq.acquireBytes(1) {
		t.Fatal("acquisition past the cap admitted")
	}
	tq.releaseBytes(40)
	if !tq.acquireBytes(40) {
		t.Fatal("released budget not reusable")
	}
	if tq.acquireBytes(101) {
		t.Fatal("payload larger than the cap admitted")
	}
	// Zero-byte ops (deletes, arith) never touch the gauge.
	if !tq.acquireBytes(0) {
		t.Fatal("zero-byte acquisition denied")
	}
}

// TestTenantQuotaConfigValidation pins Config.TenantQuotas validation.
func TestTenantQuotaConfigValidation(t *testing.T) {
	for _, q := range []map[string]TenantQuota{
		{"bad name": {OpsPerSec: 1}},
		{"": {OpsPerSec: 1}},
		{"gold": {OpsPerSec: -1}},
		{"gold": {MaxBytesInFlight: -1}},
	} {
		cfg := Config{MemoryBytes: 1 << 20, TenantQuotas: q}
		if _, err := New(cfg); err == nil {
			t.Errorf("TenantQuotas %v: want error", q)
		}
	}
}

// TestTenantQuotaShedAndRefill is the end-to-end quota test: a tenant capped
// at 4 ops/sec has its burst admitted and the next mutation shed with
// SERVER_ERROR, other tenants keep writing untouched, the shed count lands in
// stats tenants, and a slot refills after an interval.
func TestTenantQuotaShedAndRefill(t *testing.T) {
	s := startServer(t, Config{
		MemoryBytes:  1 << 20,
		TenantQuotas: map[string]TenantQuota{"gold": {OpsPerSec: 4}},
	})
	gold, err := kvclient.DialWithTenant(s.Addr(), "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	silver, err := kvclient.DialWithTenant(s.Addr(), "silver")
	if err != nil {
		t.Fatal(err)
	}
	defer silver.Close()
	def := dial(t, s)

	for i := 0; i < 4; i++ {
		if err := gold.Set("k"+strconv.Itoa(i), []byte("v"), 0, 0, 1); err != nil {
			t.Fatalf("burst op %d: %v", i, err)
		}
	}
	err = gold.Set("k4", []byte("v"), 0, 0, 1)
	if !errors.Is(err, kvclient.ErrOverQuota) {
		t.Fatalf("5th op = %v, want ErrOverQuota", err)
	}
	if !errors.Is(err, kvclient.ErrServer) {
		t.Fatal("ErrOverQuota must wrap ErrServer")
	}
	// Unlimited tenants never feel gold's storm.
	if err := silver.Set("s", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := def.Set("d", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Reads are not shed by default: an over-quota tenant can still drain
	// its cache.
	if v, ok, err := gold.Get("k0"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("over-quota read = %q/%v/%v, want hit", v, ok, err)
	}

	ts, err := def.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	if statInt(t, ts, "tenant:gold:quota_shed") < 1 {
		t.Fatalf("gold quota_shed = %q, want >= 1", ts["tenant:gold:quota_shed"])
	}
	if ts["tenant:silver:quota_shed"] != "0" || ts["tenant:default:quota_shed"] != "0" {
		t.Fatalf("unlimited tenants shed: silver=%q default=%q",
			ts["tenant:silver:quota_shed"], ts["tenant:default:quota_shed"])
	}

	// One 250ms interval refills one slot.
	time.Sleep(300 * time.Millisecond)
	if err := gold.Set("k5", []byte("v"), 0, 0, 1); err != nil {
		t.Fatalf("post-refill op: %v", err)
	}
}

// TestTenantQuotaShedReads pins the opt-in read shedding and that shed
// replies keep the connection usable.
func TestTenantQuotaShedReads(t *testing.T) {
	s := startServer(t, Config{
		MemoryBytes:  1 << 20,
		TenantQuotas: map[string]TenantQuota{"gold": {OpsPerSec: 2, ShedReads: true}},
	})
	conn := rawDial(t, s)
	defer conn.Close()
	if got := sendLine(t, conn, "tenant gold"); got != "TENANT gold" {
		t.Fatalf("tenant switch = %q", got)
	}
	shed := false
	for i := 0; i < 4; i++ {
		got := sendLine(t, conn, "get k")
		if got == "SERVER_ERROR tenant over quota" {
			shed = true
			break
		}
		if got != "END" {
			t.Fatalf("get %d = %q", i, got)
		}
	}
	if !shed {
		t.Fatal("reads never shed despite ShedReads past the burst")
	}
	// The connection survived the shed reply.
	if got := sendLine(t, conn, "tenant"); got != "TENANT gold" {
		t.Fatalf("connection unusable after shed: %q", got)
	}
}
