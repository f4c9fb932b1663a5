package kvserver

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"camp/internal/kvclient"
	"camp/internal/trace"
)

// TestTenantVerbProtocol pins the tenant verb grammar: bare tenant echoes
// the current tenant, a valid name switches the connection, bad names answer
// CLIENT_ERROR without killing the connection, and non-byte layouts refuse
// non-default tenants.
func TestTenantVerbProtocol(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20})
	conn := rawDial(t, s)
	defer conn.Close()

	for _, tc := range []struct{ cmd, want string }{
		{"tenant", "TENANT default"},
		{"tenant gold", "TENANT gold"},
		{"tenant", "TENANT gold"},
		{"tenant two args", "CLIENT_ERROR bad tenant name"},
		{"tenant " + strings.Repeat("x", 65), "CLIENT_ERROR bad tenant name"},
		{"tenant a\x01b", "CLIENT_ERROR bad tenant name"},
		{"tenant", "TENANT gold"}, // failed switches leave the tenant alone
		{"tenant default", "TENANT default"},
		{"tenant", "TENANT default"},
	} {
		if got := sendLine(t, conn, tc.cmd); got != tc.want {
			t.Errorf("%q = %q, want %q", tc.cmd, got, tc.want)
		}
	}

	// Keys may not contain NUL (the namespace delimiter): writes answer
	// CLIENT_ERROR, reads treat the key as absent — either way a client can
	// never forge its way into another tenant's namespace.
	if got := sendLine(t, conn, "get a\x00b"); got != "END" {
		t.Errorf("get with NUL key = %q, want END", got)
	}
	if got := sendLine(t, conn, "delete a\x00b"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("delete with NUL key = %q, want CLIENT_ERROR", got)
	}
	// The data block must still be sent — the server drains it to keep the
	// stream aligned, then rejects the key.
	if got := sendLine(t, conn, "set a\x00b 0 0 1\r\nv"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("set with NUL key = %q, want CLIENT_ERROR", got)
	}
}

// TestTenantConfigValidation pins Config.TenantReserves validation.
func TestTenantConfigValidation(t *testing.T) {
	base := Config{MemoryBytes: 1 << 20}
	bad := []map[string]int64{
		{"bad name": 1 << 10},             // space in name
		{"": 1 << 10},                     // empty name
		{"gold": -1},                      // negative reserve
		{"gold": 1 << 19, "sil": 1 << 20}, // reserves exceed memory
	}
	for _, res := range bad {
		cfg := base
		cfg.TenantReserves = res
		if _, err := New(cfg); err == nil {
			t.Errorf("TenantReserves %v: want error", res)
		}
	}
	cfg := base
	cfg.TenantReserves = map[string]int64{"gold": 1 << 18}
	s := startServer(t, cfg)
	c := dial(t, s)
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats["tenants"] != "2" {
		t.Errorf("tenants stat = %q, want 2 (default + gold)", stats["tenants"])
	}
	ts, err := c.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	if ts["tenant:gold:reserved_bytes"] != strconv.Itoa(1<<18) {
		t.Errorf("gold reserved_bytes = %q, want %d", ts["tenant:gold:reserved_bytes"], 1<<18)
	}
}

// TestTenantNamespaceIsolation drives two tenants through the kvclient: the
// same user key holds independent values per tenant, and every keyed verb
// stays inside the connection's namespace.
func TestTenantNamespaceIsolation(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 2})

	gold := dial(t, s)
	if err := gold.Tenant("gold"); err != nil {
		t.Fatal(err)
	}
	silver, err := kvclient.DialWithTenant(s.Addr(), "silver")
	if err != nil {
		t.Fatal(err)
	}
	defer silver.Close()
	def := dial(t, s)

	for _, tc := range []struct {
		c   *kvclient.Client
		val string
	}{{gold, "gold-v"}, {silver, "silver-v"}, {def, "default-v"}} {
		if err := tc.c.Set("shared-key", []byte(tc.val), 0, 0, 7); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		c    *kvclient.Client
		want string
	}{{gold, "gold-v"}, {silver, "silver-v"}, {def, "default-v"}} {
		v, ok, err := tc.c.Get("shared-key")
		if err != nil || !ok || string(v) != tc.want {
			t.Fatalf("get shared-key = %q/%v/%v, want %q", v, ok, err, tc.want)
		}
	}

	// Delete in one tenant leaves the other two intact.
	if ok, err := gold.Delete("shared-key"); err != nil || !ok {
		t.Fatalf("gold delete = %v/%v", ok, err)
	}
	if _, ok, _ := gold.Get("shared-key"); ok {
		t.Error("gold still sees deleted key")
	}
	for _, tc := range []struct {
		c    *kvclient.Client
		want string
	}{{silver, "silver-v"}, {def, "default-v"}} {
		if v, ok, _ := tc.c.Get("shared-key"); !ok || string(v) != tc.want {
			t.Errorf("after gold delete: got %q/%v, want %q", v, ok, tc.want)
		}
	}

	// Arithmetic and touch stay namespaced too.
	if err := gold.Set("ctr", []byte("5"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := gold.Incr("ctr", 2); err != nil || !ok || v != 7 {
		t.Fatalf("gold incr = %d/%v/%v", v, ok, err)
	}
	if _, ok, _ := silver.Incr("ctr", 2); ok {
		t.Error("silver incr hit gold's counter")
	}
	if ok, _ := silver.Touch("ctr", 60); ok {
		t.Error("silver touch hit gold's counter")
	}

	// Per-tenant read counters moved with the operations above.
	ts, err := def.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	if statInt(t, ts, "tenant:gold:hits") == 0 || statInt(t, ts, "tenant:gold:bytes") == 0 {
		t.Errorf("gold counters empty: hits=%q bytes=%q", ts["tenant:gold:hits"], ts["tenant:gold:bytes"])
	}
	if ts["tenant:silver:items"] != "1" {
		t.Errorf("silver items = %q, want 1", ts["tenant:silver:items"])
	}
}

// TestTenantFlushScoping is the flush regression: a bare flush_all clears
// only the connection's tenant — other tenants' entries and everyone's
// lifetime counters survive — and "flush_all all" clears the whole server.
func TestTenantFlushScoping(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 2})

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

	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		for _, c := range []*kvclient.Client{gold, silver, def} {
			if err := c.Set(k, []byte("v"), 0, 0, 1); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := c.Get(k); err != nil || !ok {
				t.Fatalf("get %s = %v/%v", k, ok, err)
			}
		}
	}
	before, err := def.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}

	// gold's flush touches only gold.
	if err := gold.FlushAll(); err != nil {
		t.Fatal(err)
	}
	after, err := def.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	if after["tenant:gold:items"] != "0" || after["tenant:gold:bytes"] != "0" {
		t.Errorf("gold not flushed: items=%q bytes=%q", after["tenant:gold:items"], after["tenant:gold:bytes"])
	}
	for _, tenant := range []string{"silver", "default"} {
		for _, f := range []string{"items", "bytes"} {
			k := "tenant:" + tenant + ":" + f
			if statInt(t, after, k) != statInt(t, before, k) {
				t.Errorf("%s changed across gold flush: %q -> %q", k, before[k], after[k])
			}
		}
	}
	// Lifetime hit counters survive the flush — for gold too.
	for _, tenant := range []string{"gold", "silver", "default"} {
		k := "tenant:" + tenant + ":hits"
		if statInt(t, after, k) != statInt(t, before, k) {
			t.Errorf("%s changed across flush: %q -> %q", k, before[k], after[k])
		}
	}
	if _, ok, _ := gold.Get("k0"); ok {
		t.Error("gold k0 survived gold flush")
	}
	if v, ok, _ := silver.Get("k0"); !ok || string(v) != "v" {
		t.Error("silver k0 lost to gold flush")
	}

	// A default-tenant flush is scoped the same way.
	if err := def.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := def.Get("k0"); ok {
		t.Error("default k0 survived default flush")
	}
	if _, ok, _ := silver.Get("k0"); !ok {
		t.Error("silver k0 lost to default flush")
	}

	// The old permissive grammar is gone; only "flush_all" and
	// "flush_all all" parse.
	conn := rawDial(t, s)
	defer conn.Close()
	if got := sendLine(t, conn, "flush_all 0"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("flush_all 0 = %q, want CLIENT_ERROR", got)
	}

	// flush_all all clears every tenant.
	if err := def.FlushAllTenants(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := silver.Get("k0"); ok {
		t.Error("silver k0 survived flush_all all")
	}
	final, err := def.Stats("stats tenants")
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"gold", "silver", "default"} {
		if v := final["tenant:"+tenant+":bytes"]; v != "0" {
			t.Errorf("%s bytes after flush_all all = %q, want 0", tenant, v)
		}
	}
}

// tenantTotals is per-tenant residency summed across shards, by tenant name.
type tenantTotals struct {
	used, items, evictions map[string]int64
}

// tenantSnapshot captures the per-tenant accounting a restart or a FULLSYNC
// must reproduce byte-exactly.
func tenantSnapshot(s *Server) (names []string, reserves map[string]int64, totals tenantTotals) {
	reserves = make(map[string]int64)
	totals = tenantTotals{used: map[string]int64{}, items: map[string]int64{}, evictions: map[string]int64{}}
	for _, x := range s.sampleTenants() {
		names = append(names, x.t.name)
		reserves[x.t.name] = x.t.reserve.Load()
		totals.used[x.t.name], totals.items[x.t.name], totals.evictions[x.t.name] = x.bytes, x.items, x.evictions
	}
	return names, reserves, totals
}

// TestTenantWarmRestart fills several tenants — one via config reserve, one
// via the verb with keys, one keyless — forces compactions so KindTenant
// records flow through snapshots, then warm-restarts and requires the exact
// same items, tenant set, reserves, and per-tenant byte accounting.
func TestTenantWarmRestart(t *testing.T) {
	cfg := Config{
		MemoryBytes:    1 << 20,
		Shards:         2,
		TenantReserves: map[string]int64{"gold": 1 << 18},
		Persist:        &PersistConfig{Dir: t.TempDir(), AOFLimit: 4 << 10},
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
	// A tenant that never stores a key must still survive the restart: its
	// existence and quota ride on KindTenant records alone.
	if err := def.Tenant("keyless"); err != nil {
		t.Fatal(err)
	}
	if err := def.Tenant("default"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%03d", i)
		val := []byte(strings.Repeat("x", 20+i%64))
		for _, c := range []*kvclient.Client{gold, silver, def} {
			if err := c.Set(k, val, uint32(i), 0, int64(1+i%100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Compaction runs on the background compactor; give it a moment.
	for deadline := time.Now().Add(5 * time.Second); totalCompactions(s1) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no compactions: snapshot path not exercised (shrink AOFLimit)")
		}
	}

	wantState := captureState(s1)
	wantNames, wantReserves, wantTotals := tenantSnapshot(s1)
	gold.Close()
	silver.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	assertStateEqual(t, wantState, captureState(s2))
	gotNames, gotReserves, gotTotals := tenantSnapshot(s2)
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Errorf("tenant set after restart = %v, want %v", gotNames, wantNames)
	}
	if !reflect.DeepEqual(wantReserves, gotReserves) {
		t.Errorf("reserves after restart = %v, want %v", gotReserves, wantReserves)
	}
	if !reflect.DeepEqual(wantTotals.used, gotTotals.used) {
		t.Errorf("per-tenant bytes after restart = %v, want %v", gotTotals.used, wantTotals.used)
	}
	if !reflect.DeepEqual(wantTotals.items, gotTotals.items) {
		t.Errorf("per-tenant items after restart = %v, want %v", gotTotals.items, wantTotals.items)
	}
}

// TestTenantReplicationFullsync starts a replica in the middle of a
// multi-tenant write churn, so the FULLSYNC bootstrap races live streamed
// ops; once caught up, the follower must agree with the primary on every
// item and on every tenant's byte/item accounting.
func TestTenantReplicationFullsync(t *testing.T) {
	p := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Shards:      2,
		Persist:     &PersistConfig{Dir: t.TempDir()},
	})
	gold, err := kvclient.DialWithTenant(p.Addr(), "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	silver, err := kvclient.DialWithTenant(p.Addr(), "silver")
	if err != nil {
		t.Fatal(err)
	}
	defer silver.Close()
	def := dial(t, p)

	churn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k := fmt.Sprintf("k%03d", i)
			for _, c := range []*kvclient.Client{gold, silver, def} {
				if err := c.Set(k, []byte(strings.Repeat("v", 10+i%50)), 0, 0, int64(1+i%9)); err != nil {
					t.Fatal(err)
				}
			}
			if i%7 == 0 {
				if _, err := gold.Delete(fmt.Sprintf("k%03d", i/2)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	churn(0, 80)
	f := startReplica(t, p, Config{
		MemoryBytes: 1 << 20,
		Shards:      2,
		Persist:     &PersistConfig{Dir: t.TempDir()},
	})
	churn(80, 200) // keeps writing while the follower bootstraps
	waitCaughtUp(t, p, f)

	assertStateEqual(t, captureState(p), captureState(f))
	wantNames, wantReserves, wantTotals := tenantSnapshot(p)
	gotNames, gotReserves, gotTotals := tenantSnapshot(f)
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Errorf("follower tenant set = %v, want %v", gotNames, wantNames)
	}
	if !reflect.DeepEqual(wantReserves, gotReserves) {
		t.Errorf("follower reserves = %v, want %v", gotReserves, wantReserves)
	}
	if !reflect.DeepEqual(wantTotals, gotTotals) {
		t.Errorf("follower tenant totals = %+v, want %+v", gotTotals, wantTotals)
	}
}

// memshareQuietHitRate runs the Memshare isolation scenario: a quiet tenant
// with a reserve covering its working set, optionally sharing the server
// with a churner replaying an evict-heavy generated trace. It returns the
// quiet tenant's hit rate over a full read pass after the churn.
func memshareQuietHitRate(t *testing.T, s *Server, withChurn bool) float64 {
	t.Helper()
	const quietKeys = 48
	quiet, err := kvclient.DialWithTenant(s.Addr(), "quiet")
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	quietVal := []byte(strings.Repeat("q", 512))
	for i := 0; i < quietKeys; i++ {
		if err := quiet.Set(fmt.Sprintf("q%02d", i), quietVal, 0, 0, 100); err != nil {
			t.Fatal(err)
		}
	}

	if withChurn {
		churn, err := kvclient.DialWithTenant(s.Addr(), "churn")
		if err != nil {
			t.Fatal(err)
		}
		defer churn.Close()
		g := trace.NewGenerator(trace.Config{Keys: 2000, Requests: 6000, Seed: 42})
		for {
			req, ok := g.Next()
			if !ok {
				break
			}
			if _, hit, err := churn.Get(req.Key); err != nil {
				t.Fatal(err)
			} else if !hit {
				if err := churn.Set(req.Key, make([]byte, req.Size), 0, 0, req.Cost); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var hits int
	for i := 0; i < quietKeys; i++ {
		if _, ok, err := quiet.Get(fmt.Sprintf("q%02d", i)); err != nil {
			t.Fatal(err)
		} else if ok {
			hits++
		}
	}
	return float64(hits) / float64(quietKeys)
}

// TestMemshareIsolation is the arbitration acceptance test: with the quiet
// tenant's working set under its reserve, an evict-heavy churner may consume
// the whole shared pool but the quiet tenant's hit rate stays within 1% of
// a solo run on the same server configuration.
func TestMemshareIsolation(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			MemoryBytes:    256 << 10,
			Shards:         1,
			DisableIQ:      true,
			TenantReserves: map[string]int64{"quiet": 96 << 10},
		}
	}

	solo := memshareQuietHitRate(t, startServer(t, mkCfg()), false)
	shared := startServer(t, mkCfg())
	got := memshareQuietHitRate(t, shared, true)

	if diff := solo - got; diff > 0.01 || diff < -0.01 {
		t.Errorf("quiet hit rate %v vs solo %v: differs by more than 1%%", got, solo)
	}

	ts := map[string]string{}
	{
		c := dial(t, shared)
		var err error
		if ts, err = c.Stats("stats tenants"); err != nil {
			t.Fatal(err)
		}
	}
	if statInt(t, ts, "tenant:churn:evictions") == 0 {
		t.Error("churner saw no evictions: trace not evict-heavy, test proves nothing")
	}
	if ev := statInt(t, ts, "tenant:quiet:evictions"); ev != 0 {
		t.Errorf("quiet tenant evictions = %d, want 0 (working set under reserve)", ev)
	}
	quietBytes := statInt(t, ts, "tenant:quiet:bytes")
	if quietBytes < 48*512 {
		t.Errorf("quiet bytes = %d, want at least the 24KiB working set", quietBytes)
	}
	churnBytes := statInt(t, ts, "tenant:churn:bytes")
	if churnBytes <= quietBytes {
		t.Errorf("churn bytes = %d <= quiet bytes %d: shared pool never flowed to the churner",
			churnBytes, quietBytes)
	}
}

// FuzzParseTenantCommand fuzzes the tenant-name validator with arbitrary
// wire tokens: anything accepted must round-trip verbatim, stay within the
// length bound, contain no separator/control bytes — and must produce a
// namespaced key that maps back to exactly that tenant.
func FuzzParseTenantCommand(f *testing.F) {
	f.Add([]byte("gold"))
	f.Add([]byte("default"))
	f.Add([]byte(""))
	f.Add([]byte("a\x00b"))
	f.Add([]byte("with space"))
	f.Add([]byte(strings.Repeat("x", 65)))
	f.Add([]byte{0x7f})
	f.Fuzz(func(t *testing.T, tok []byte) {
		name, ok := parseTenantName(tok)
		if !ok {
			if len(tok) > 0 && len(tok) <= maxTenantNameLen {
				for _, b := range tok {
					if b <= ' ' || b == 0x7f {
						return
					}
				}
				t.Fatalf("rejected clean token %q", tok)
			}
			return
		}
		if name != string(tok) {
			t.Fatalf("accepted name %q != token %q", name, tok)
		}
		if len(name) == 0 || len(name) > maxTenantNameLen {
			t.Fatalf("accepted name %q out of bounds", name)
		}
		for _, b := range []byte(name) {
			if b <= ' ' || b == 0x7f {
				t.Fatalf("accepted name %q contains separator/control byte %#x", name, b)
			}
		}
		if name == defaultTenantName {
			return
		}
		nsKey := name + "\x00" + "user-key"
		if !keyInTenant(name, nsKey) {
			t.Fatalf("tenant %q does not own its own namespaced key", name)
		}
		if keyInTenant(defaultTenantName, nsKey) {
			t.Fatalf("default tenant claims %q's key", name)
		}
	})
}
