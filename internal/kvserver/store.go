package kvserver

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"camp/internal/cache"
	"camp/internal/core"
	"camp/internal/itab"
	"camp/internal/persist"
)

// item is one stored key-value pair. Callers hold the shard mutex. Items
// live in fixed chunks under a flat index (itab), which finds a wire []byte
// key or a string without materializing either. An overwrite updates the
// item in place, and a deleted item is zeroed and its slot reused, so hold
// no *item past the lock or a call that may remove it. A value slice, once
// stored, is never mutated. Layouts that copy values (layout.copiesValues)
// leave value nil and locate the bytes through loc instead: read them with
// store.valueOf, and copy what must outlive the lock.
type item struct {
	// node carries the key, the charged size and the admission cost, and
	// links the item into the ordering its key routes to (store.stateFor):
	// the index entry and the eviction-order entry are one object.
	node  cache.Node
	value []byte
	flags uint32
	ref   uint32 // the item's slot in store.items
	// expires is the absolute expiry in unix nanoseconds, 0 meaning none —
	// the form the layouts, the journal and persist.Op carry too.
	expires int64
	// loc is the layout's location word for the value (layouts.go); only the
	// layout that issued it can interpret it.
	loc uint64
}

// Key is the key the item is indexed under.
func (it *item) Key() string { return it.node.Key }

// store is one shard's items and their index — the only key lookup on the
// request path — its storage layout, and the eviction orderings that decide
// what stays: the default tenant's — which the layout supplies — and, for
// tenant-capable layouts, one more per non-default tenant in tens, with the
// store-level arbiter (makeRoom) enforcing the shared capacity.
type store struct {
	cfg   Config
	items *itab.Table[item, *item]
	// expiring is the subset of items with a TTL — the only ones sweepExpired
	// has any reason to probe (Redis's expires dict). Kept in step with
	// item.expires by setExpiry and forget.
	expiring map[string]*item
	lay      layout

	policy cache.Ordering
	tens   map[string]*tenantState

	// totalUsed is the running store-resident byte total across the default
	// ordering and every tenant ordering — what used() returns. Maintained
	// incrementally (noteUsage) against per-policy cached figures so the
	// arbiter's capacity checks are O(1) instead of O(#tenants) per probe.
	totalUsed int64
	// defUsed caches the default policy's last observed Used().
	defUsed int64

	// expiredReclaimed counts items removed because their TTL had passed —
	// on access and by the incremental sweep — as opposed to policy
	// evictions.
	expiredReclaimed uint64
	// evictedBase/rejectedBase carry policy-held counts across flush():
	// flush replaces the policy objects, so their lifetime stats are folded
	// in here first.
	evictedBase  uint64
	rejectedBase uint64
}

func newStore(cfg Config) (*store, error) {
	st := &store{cfg: cfg}
	if err := st.reset(); err != nil {
		return nil, err
	}
	return st, nil
}

// reset installs an empty index with a fresh layout and fresh policies, all
// bound to st itself. The per-tenant policy states are rebuilt eagerly from
// the registry, which outlives any flush: connections still hold their
// *tenant, and the next namespaced write must land in its tenant's (fresh)
// policy — with reserves and arbitration intact — not escape into the
// default one.
func (st *store) reset() error {
	lay, p, err := newLayout(st)
	if err != nil {
		return err
	}
	p.OnEvict(st.onEvict)
	st.items, st.expiring, st.lay, st.policy = itab.New[item](), make(map[string]*item), lay, p
	st.tens, st.totalUsed, st.defUsed = nil, 0, 0
	if reg := st.cfg.tenants; reg != nil {
		for _, t := range reg.list() {
			st.ensureTenant(t.name)
		}
	}
	return nil
}

func buildPolicy(cfg Config, capacity int64) (cache.Ordering, error) {
	for _, p := range core.Policies {
		if p.Name == cfg.Policy && p.Served {
			return p.New(capacity, cfg.Precision), nil
		}
	}
	return nil, fmt.Errorf("%w: unknown policy %q", errBadConfig, cfg.Policy)
}

// onEvict keeps the index and the layout in sync with an ordering's
// evictions.
func (st *store) onEvict(n *cache.Node) {
	if it := itab.Lookup(st.items, n.Key); it != nil {
		st.lay.release(it.loc)
		st.forget(it)
	}
}

// forget drops it from expiring, if it has a TTL, and frees it.
func (st *store) forget(it *item) {
	st.setExpiry(it, 0)
	st.items.Delete(it.ref)
}

// setExpiry assigns an indexed item's deadline, filing it under expiring or
// taking it out; an item that had no TTL and gets none touches only itself.
func (st *store) setExpiry(it *item, expires int64) {
	if expires != 0 {
		st.expiring[it.node.Key] = it
	} else if it.expires != 0 {
		delete(st.expiring, it.node.Key)
	}
	it.expires = expires
}

func (st *store) itemSize(key string, value []byte) int64 {
	return int64(len(key)) + int64(len(value)) + st.cfg.ItemOverhead
}

// tenantState is one non-default tenant's slice of a shard: its own instance
// of the configured eviction policy (sized to the whole shard — the
// store-level arbiter in makeRoom enforces the real shared limit) plus the
// registry entry carrying its reserve and lifetime counters.
type tenantState struct {
	t      *tenant
	policy cache.Ordering
	// cachedUsed is the policy's last Used() observed by noteUsage, the
	// delta base for the store's running totalUsed.
	cachedUsed int64
}

// ensureTenant creates (or returns) the per-shard policy state for a
// non-default tenant. Tenant-capable layouts only: under the others the
// tenant verb is refused at the protocol layer, and a restored namespaced key
// is served as a plain key with no isolation. The caller holds the shard
// mutex.
func (st *store) ensureTenant(name string) *tenantState {
	if name == defaultTenantName || st.cfg.tenants == nil || !st.lay.tenantCapable() {
		return nil
	}
	if ts, ok := st.tens[name]; ok {
		return ts
	}
	t, _ := st.cfg.tenants.ensure(name)
	p, err := buildPolicy(st.cfg, st.cfg.MemoryBytes)
	if err != nil {
		// The config was already validated at construction.
		panic("kvserver: tenant policy build failed: " + err.Error())
	}
	p.OnEvict(st.onEvict)
	ts := &tenantState{t: t, policy: p}
	if st.tens == nil {
		st.tens = make(map[string]*tenantState)
	}
	st.tens[name] = ts
	return ts
}

// multiTenant reports whether namespaced keys must be routed to per-tenant
// policies. It is driven by the server-wide registry, not this store's tens
// table: tens is a per-shard cache that flush() rebuilds, and routing off it
// was the flush_all escape — with tens zeroed, every namespaced key silently
// landed in the default policy until restart, bypassing reserves,
// arbitration and per-tenant stats.
func (st *store) multiTenant() bool {
	reg := st.cfg.tenants
	return reg != nil && reg.multi.Load() && st.lay.tenantCapable()
}

// stateFor routes a stored key to the ordering that owns it — the tenant
// named by the key's NUL-delimited prefix, or the default one for bare keys —
// plus the owning tenantState (nil for the default tenant), the pair
// noteUsage needs to keep the running total exact. With no non-default
// tenant registered anywhere — the single-tenant fast path — the byte scan
// is skipped entirely: no namespaced key can be resident then.
func (st *store) stateFor(key string) (cache.Ordering, *tenantState) {
	if !st.multiTenant() {
		return st.policy, nil
	}
	if i := strings.IndexByte(key, 0); i >= 0 {
		if ts := st.ensureTenant(key[:i]); ts != nil {
			return ts.policy, ts
		}
	}
	return st.policy, nil
}

// noteUsage re-reads one policy's Used() and folds the delta into the
// store's running total. It must be called after every mutation of a
// policy's contents (set, delete, eviction — including evictions the policy
// performed internally during a Set): the absolute re-read makes the resync
// self-healing no matter how many entries one call displaced.
func (st *store) noteUsage(p cache.Ordering, ts *tenantState) {
	cached := &st.defUsed
	if ts != nil {
		cached = &ts.cachedUsed
	}
	u := p.Used()
	st.totalUsed += u - *cached
	*cached = u
}

// shardReserve is this shard's slice of a tenant's server-wide reserve: an
// even split with shard 0 absorbing the remainder, mirroring how New splits
// capacity.
func (st *store) shardReserve(total int64) int64 {
	n := int64(st.cfg.Shards)
	if n <= 1 {
		return total
	}
	per := total / n
	if st.cfg.shardSlot == 0 {
		per += total % n
	}
	return per
}

// used is the store-wide resident byte figure the shared capacity bounds.
// It is the running total noteUsage maintains, so the arbiter's inner loops
// read it in O(1) instead of re-summing every tenant policy.
func (st *store) used() int64 { return st.totalUsed }

// makeRoom frees shared capacity until an insert of size bytes on behalf of
// requester fits. Victims are chosen Memshare-style by evictArbitratedBatch,
// so a false return means the insert must be rejected (nothing evictable
// without breaking another tenant's reserve).
func (st *store) makeRoom(requester cache.Ordering, size int64) bool {
	capacity := st.cfg.MemoryBytes
	if size > capacity {
		return false
	}
	for st.used()+size > capacity {
		if !st.evictArbitratedBatch(requester, st.used()+size-capacity) {
			return false
		}
	}
	return true
}

// evictArbitratedBatch frees up to need bytes from the tenant whose next
// victim carries the lowest marginal priority (the policy's H − L urgency),
// considering only tenants holding more than their reserve slice — plus the
// requester itself, which may always churn its own entries. One tenant's
// pressure can therefore drain the shared pool but never another tenant's
// reserve.
//
// After one walk picks the winner, eviction keeps draining the same policy
// while it stays eligible, its victims stay strictly cheapest (urgency below
// every other candidate's — their urgencies cannot change while only the
// winner is mutated), and bytes are still needed. That amortizes the
// O(#tenants) walk across a batch of victims: a large insert under many
// tenants is O(tenants + victims) instead of the old O(tenants × victims).
// Returns false only when nothing was evictable.
func (st *store) evictArbitratedBatch(requester cache.Ordering, need int64) bool {
	var (
		found     bool
		best      cache.Ordering
		bestTS    *tenantState
		bestUrg   float64
		bestOver  int64
		secondUrg float64
		hasSecond bool
	)
	consider := func(p cache.Ordering, ts *tenantState, reserveTotal int64) {
		if p.Len() == 0 {
			return
		}
		over := p.Used() - st.shardReserve(reserveTotal)
		if over <= 0 && p != requester {
			return // within reserve: protected from other tenants' churn
		}
		_, urg := p.Victim()
		if !found || urg < bestUrg || (urg == bestUrg && over > bestOver) {
			if found {
				secondUrg, hasSecond = bestUrg, true
			}
			found, best, bestTS, bestUrg, bestOver = true, p, ts, urg, over
		} else if !hasSecond || urg < secondUrg {
			secondUrg, hasSecond = urg, true
		}
	}
	var defReserve int64
	if reg := st.cfg.tenants; reg != nil {
		defReserve = reg.def.reserve.Load()
	}
	consider(st.policy, nil, defReserve)
	for _, ts := range st.tens {
		consider(ts.policy, ts, ts.t.reserve.Load())
	}
	if !found {
		return false
	}
	reserve := st.shardReserve(defReserve)
	if bestTS != nil {
		reserve = st.shardReserve(bestTS.t.reserve.Load())
	}
	evictedAny := false
	for need > 0 {
		if best.Evict() == nil {
			break
		}
		evictedAny = true
		before := st.used()
		st.noteUsage(best, bestTS)
		need -= before - st.used()
		if need <= 0 || best.Len() == 0 {
			break
		}
		// Still eligible? The winner may have dropped to (or below) its
		// reserve; from there only the requester itself may keep churning.
		if best != requester && best.Used()-reserve <= 0 {
			break
		}
		// Still strictly cheapest? On a tie or crossover, fall back to the
		// caller's loop for a fresh arbitration walk.
		if hasSecond {
			if _, urg := best.Victim(); urg >= secondUrg {
				break
			}
		}
	}
	return evictedAny
}

// flushTenant removes every entry owned by one tenant, leaving other
// tenants' entries, the per-tenant policy objects, and the store's lifetime
// counters untouched. Deletions are not evictions, so eviction stats are
// unaffected too.
func (st *store) flushTenant(name string) {
	if !st.lay.tenantCapable() {
		// These layouts are single-tenant: only the default name means
		// anything, and flushing it flushes everything, as before.
		if name == defaultTenantName {
			st.flush()
		}
		return
	}
	var p cache.Ordering
	if name == defaultTenantName {
		p = st.policy
	} else if ts, ok := st.tens[name]; ok {
		p = ts.policy
	} else {
		return
	}
	keys := make([]string, 0, p.Len())
	p.Visit(func(n *cache.Node, _, _ uint64) bool {
		keys = append(keys, n.Key)
		return true
	})
	for _, k := range keys {
		st.delete(k)
	}
}

// policyLifetime sums lifetime eviction/rejection counts across the default
// policy and every tenant policy.
func (st *store) policyLifetime() (evicted, rejected uint64) {
	s := st.policy.Stats()
	evicted, rejected = s.Evictions, s.Rejected
	for _, ts := range st.tens {
		ts2 := ts.policy.Stats()
		evicted += ts2.Evictions
		rejected += ts2.Rejected
	}
	return evicted, rejected
}

// visitTenantUsage reports per-tenant residency in this store. The caller
// holds the shard mutex.
func (st *store) visitTenantUsage(visit func(name string, used int64, items int, evictions uint64)) {
	visit(defaultTenantName, st.policy.Used(), st.policy.Len(), st.policy.Stats().Evictions)
	for name, ts := range st.tens {
		visit(name, ts.policy.Used(), ts.policy.Len(), ts.policy.Stats().Evictions)
	}
}

// resident is the index probe, for a key in either its wire []byte form or
// as a string, allocation-free either way — the only key hashed on a hit —
// then lazy expiry, which reclaims an item whose TTL has passed and reports
// it absent. now is unix nanoseconds.
func resident[K ~string | ~[]byte](st *store, key K, now int64) (*item, bool) {
	it := itab.Lookup(st.items, key)
	if it != nil && it.expires != 0 && now > it.expires {
		st.delete(it.node.Key)
		st.expiredReclaimed++
		it = nil
	}
	return it, it != nil
}

// lookup is the read path's probe: resident, then the recency/priority bump
// in the ordering that owns the key.
func lookup[K ~string | ~[]byte](st *store, key K, now int64) (*item, bool) {
	it, ok := resident(st, key, now)
	if ok {
		p, _ := st.stateFor(it.node.Key)
		p.Touch(&it.node)
	}
	return it, ok
}

// sweepExpired probes up to n items that have a TTL and reclaims the ones
// whose TTL has passed, counting each in expired_reclaimed. Go's randomized
// map iteration starts every call at a fresh bucket, so the few probes each
// mutation pays walk all of expiring over time — the memcached/Redis-style
// incremental sweep that stops expired-but-untouched items from pinning
// capacity (and inflating curr_items/bytes) forever; a store that uses no
// TTLs pays nothing for it. Runs under the already-held shard lock; n stays
// small so no single request stalls.
func (st *store) sweepExpired(now int64, n int) {
	for key, it := range st.expiring {
		if n <= 0 {
			return
		}
		n--
		if now > it.expires {
			st.delete(key)
			st.expiredReclaimed++
		}
	}
}

// expiryFrom converts a memcached relative TTL in seconds to an absolute
// deadline in unix nanoseconds, 0 meaning none. Negative exptime means "already expired" (memcached's invalidation idiom),
// not "no expiry": mapping it to immortal let `set k 0 -1 3` pin an
// unexpirable item and made `touch k -1` immortalize instead of invalidate.
// The deadline lands just behind now, so the entry is born expired and the
// next access or sweep reclaims it — and since journals and replication
// carry this deadline (not the TTL), replay reproduces the invalidation.
func expiryFrom(ttl, now int64) int64 {
	if ttl > 0 {
		return now + ttl*int64(time.Second)
	}
	if ttl < 0 {
		return now - 1
	}
	return 0
}

// setAbs is set with an absolute expiry, the form recovery needs: journals
// record deadlines, not TTLs, so restarts do not extend item lifetimes.
func (st *store) setAbs(key string, value []byte, flags uint32, expires, cost int64) bool {
	return st.setAbsPrio(key, value, flags, expires, cost, 0, 0, false)
}

// setAbsPrio is setAbs with an optional pinned eviction-priority offset, the
// form v2 snapshot replay uses: a KindSetPrio record re-enters the policy at
// the exact H − L it held when the snapshot was cut, so a mid-churn warm
// start reproduces the live cross-queue eviction schedule. Policies without
// priority state ignore the offset — replay order alone restores them
// exactly.
//
// The layout lands the bytes, then the key is admitted through the ordering
// that owns it at the size the layout charges, so priorities, tenancy and
// persistence behave identically across layouts. An overwrite updates the
// resident item struct in place; a new key's item is indexed once admitted.
func (st *store) setAbsPrio(key string, value []byte, flags uint32, expires, cost int64, prio, class uint64, hasPrio bool) bool {
	p, ts := st.stateFor(key)
	loc, charged, ok := st.lay.put(p, key, value, flags, expires)
	// Looked up after put rather than before: the layout's own evictions may
	// have removed the old version meanwhile. From here on it cannot go — it
	// is detached from its ordering while the new version is admitted, so no
	// eviction can pick it.
	it := itab.Lookup(st.items, key)
	exists := it != nil
	if exists {
		p.Remove(&it.node)
	} else {
		ref, fresh := st.items.Alloc()
		fresh.node.Key, fresh.ref, it = key, ref, fresh
	}
	if ok && !st.admit(p, ts, &it.node, charged, cost, prio, class, hasPrio) {
		st.lay.release(loc)
		ok = false
	}
	st.noteUsage(p, ts)
	if !ok {
		// A failed set drops the key — whatever old version remained — in
		// every layout: the caller journals exactly that.
		if exists {
			st.lay.release(it.loc)
			st.forget(it)
		} else {
			st.items.Release(it.ref)
		}
		return false
	}
	if exists {
		st.lay.release(it.loc)
	} else {
		st.items.Insert(it.ref)
	}
	if st.lay.copiesValues() {
		value = nil
	}
	it.value, it.flags, it.loc = value, flags, loc
	st.setExpiry(it, expires)
	st.lay.maintain()
	return true
}

// admit inserts a detached node into p, the ordering that owns its key,
// pinning the priority offset and class when they were recorded. On the
// multi-tenant path makeRoom clears shared capacity before the owning
// ordering (whose own capacity is the whole shard) admits the entry; the
// caller resyncs the running resident total afterwards.
func (st *store) admit(p cache.Ordering, ts *tenantState, n *cache.Node, size, cost int64, prio, class uint64, hasPrio bool) bool {
	if st.multiTenant() {
		st.noteUsage(p, ts)
		if !st.makeRoom(p, size) {
			return false
		}
	}
	n.Size, n.Cost = size, cost
	if hasPrio {
		return p.InsertAt(n, prio, class)
	}
	return p.Insert(n)
}

// valueOf returns an item's stored value. Under a copying layout the slice
// aliases layout memory: consume or copy it before the shard lock drops.
func (st *store) valueOf(it *item) []byte {
	if st.lay.copiesValues() {
		return st.lay.value(it.loc)
	}
	return it.value
}

// touch updates an item's expiry everywhere it lives: the item struct and
// the layout's own record of it.
func (st *store) touch(it *item, expires int64) {
	st.setExpiry(it, expires)
	st.lay.touch(it.loc, expires)
}

// delete removes key from its ordering, the layout and the index.
func (st *store) delete(key string) bool {
	it := itab.Lookup(st.items, key)
	if it == nil {
		return false
	}
	p, ts := st.stateFor(key)
	p.Remove(&it.node)
	st.noteUsage(p, ts)
	st.lay.release(it.loc)
	st.forget(it)
	return true
}

func (st *store) flush() {
	// Lifetime counters survive the flush, as memcached's stats do. The
	// policy objects are being replaced, so their counts fold into the bases.
	ev, rej := st.policyLifetime()
	st.evictedBase += ev
	st.rejectedBase += rej
	if err := st.reset(); err != nil {
		// The config was already validated at construction.
		panic("kvserver: flush rebuild failed: " + err.Error())
	}
}

func (st *store) evictions() uint64 {
	ev, _ := st.policyLifetime()
	return st.evictedBase + ev
}

// queueCount is the number of non-empty CAMP queues across tenants, -1 when
// the configured ordering has none to count.
func (st *store) queueCount() int {
	qc, ok := st.policy.(cache.QueueCounter)
	if !ok {
		return -1
	}
	n := qc.QueueCount()
	for _, ts := range st.tens {
		n += ts.policy.(cache.QueueCounter).QueueCount()
	}
	return n
}

// reclaimed returns how many expired items lazy expiry has removed.
func (st *store) reclaimed() uint64 { return st.expiredReclaimed }

// rejected returns how many Set calls the eviction policies refused, so
// operators can watch admission pressure.
func (st *store) rejected() uint64 {
	_, rej := st.policyLifetime()
	return st.rejectedBase + rej
}

// restore re-applies one recovered journal op through the configured
// eviction policy, so CAMP's queues and heap are rebuilt with the costs the
// original run learned. Sets the policy now refuses (e.g. the server was
// restarted with less memory) are skipped, mirroring live admission.
func (st *store) restore(op persist.Op) error {
	switch op.Kind {
	case persist.KindSet:
		st.setAbs(op.Key, op.Value, op.Flags, op.Expires, op.Cost)
	case persist.KindSetPrio:
		st.setAbsPrio(op.Key, op.Value, op.Flags, op.Expires, op.Cost, op.Priority, op.Class, true)
	case persist.KindDelete:
		st.delete(op.Key)
	case persist.KindTouch:
		if it := itab.Lookup(st.items, op.Key); it != nil {
			st.touch(it, op.Expires)
		}
	case persist.KindFlush:
		// Keyless flushes clear the whole store (the only form before
		// multi-tenancy); keyed ones clear one tenant's namespace.
		if op.Key == "" {
			st.flush()
		} else {
			st.flushTenant(op.Key)
		}
	case persist.KindPosition:
		// Replication bookkeeping, not data; the recovery wrapper that
		// cares about positions tracks them before calling restore.
	case persist.KindScale:
		// The scale only ever widens, so installing one source's scale in
		// every policy is safe and keeps tenant replay order-independent.
		st.policy.RestoreScale(op.Scale)
		for _, ts := range st.tens {
			ts.policy.RestoreScale(op.Scale)
		}
	case persist.KindTenant:
		if reg := st.cfg.tenants; reg != nil {
			t, _ := reg.ensure(op.Key)
			t.reserve.Store(op.Reserve)
			st.ensureTenant(op.Key)
		}
	default:
		return fmt.Errorf("kvserver: unknown journal op kind %d", op.Kind)
	}
	return nil
}

// collectOps copies every live entry out as a snapshot op, in
// eviction-priority order, and — for the priority policies (CAMP, GDS) —
// with each entry's exact priority offset (H − L) as a KindSetPrio record,
// so replaying the ops rebuilds not just the queues' order but the live
// cross-queue eviction schedule, byte-exact even after eviction churn
// (snapshot format v2; ROADMAP's "exact snapshot priorities"). Pure-recency
// policies (LRU, slab classes) stay KindSet: their order is their entire
// state. The caller holds the shard mutex only for this copy-out; the
// returned ops alias the stored value slices, which is safe to serialize
// after unlocking because the server never mutates a stored value in place —
// every rewrite installs a fresh slice. A copying layout's values are the
// exception: its housekeeping DOES move the bytes, so they are copied out
// here, under the lock.
func (st *store) collectOps() []persist.Op {
	ops := make([]persist.Op, 0, st.items.Len())
	copies := st.lay.copiesValues()
	// Tenant identity and quotas go first, so replay re-creates every tenant
	// — including ones with no resident keys — before any entry lands or any
	// keyed flush needs a namespace to clear.
	if reg := st.cfg.tenants; reg != nil {
		for _, t := range reg.list() {
			if t.prefix == "" && t.reserve.Load() == 0 {
				continue // the bare default tenant is implicit
			}
			ops = append(ops, persist.Op{Kind: persist.KindTenant, Key: t.name, Reserve: t.reserve.Load()})
		}
	}
	emitPolicy := func(p cache.Ordering) {
		// The adaptive scale goes first so replay buckets every subsequent
		// Set with the live workload's learned state.
		if scale, ok := p.Scale(); ok {
			ops = append(ops, persist.Op{Kind: persist.KindScale, Scale: scale})
		}
		kind := persist.KindSet
		if p.Prioritized() {
			kind = persist.KindSetPrio
		}
		p.Visit(func(n *cache.Node, prio, class uint64) bool {
			it := itab.Lookup(st.items, n.Key)
			value := st.valueOf(it)
			if copies {
				value = append([]byte(nil), value...)
			}
			ops = append(ops, persist.Op{
				Kind:     kind,
				Key:      n.Key,
				Value:    value,
				Flags:    it.flags,
				Expires:  it.expires,
				Size:     st.itemSize(n.Key, value),
				Cost:     n.Cost,
				Priority: prio,
				Class:    class,
			})
			return true
		})
	}
	emitPolicy(st.policy)
	names := make([]string, 0, len(st.tens))
	for name := range st.tens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		emitPolicy(st.tens[name].policy)
	}
	return ops
}

// collectOpsFiltered is collectOps restricted to a tenant subset, the shape a
// tenant-filtered FULLSYNC bootstrap ships: the subset's entries and
// KindTenant records, plus every KindScale record — the adaptive scale only
// ever widens, so installing the source's scale in all of the follower's
// policies is safe (mirroring restore's KindScale handling) and keeps the
// filter stateless. names must be sorted/deduped (Config validation does).
func (st *store) collectOpsFiltered(names []string) []persist.Op {
	ops := st.collectOps()
	out := ops[:0]
	for _, op := range ops {
		switch op.Kind {
		case persist.KindTenant:
			if tenantInSubset(names, op.Key) {
				out = append(out, op)
			}
		case persist.KindScale:
			out = append(out, op)
		default:
			if keyInAnyTenant(names, op.Key) {
				out = append(out, op)
			}
		}
	}
	return out
}

// emitOps writes the ops collected by collectOps, the shape
// persist.Compaction.Commit and persist.WriteSnapshotFile expect.
func emitOps(ops []persist.Op) func(write func(persist.Op) error) error {
	return func(write func(persist.Op) error) error {
		for _, op := range ops {
			if err := write(op); err != nil {
				return err
			}
		}
		return nil
	}
}
