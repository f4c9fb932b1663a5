package kvserver

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"camp/internal/persist"
)

// Multi-tenancy: every connection belongs to exactly one tenant (the
// connection-scoped "tenant <name>" verb switches it; legacy clients stay on
// the default tenant). A non-default tenant's keys are stored internally as
// "<name>\x00<userkey>" — the NUL byte cannot appear in a client key or a
// tenant name, so the prefix is unforgeable and unambiguous. Namespacing in
// the key itself means tenant identity rides through journals, snapshots,
// FULLSYNC bootstraps and replication streams with no frame changes, and a
// pre-tenancy journal (all bare keys) loads byte-identically as the default
// tenant.
//
// Isolation is Memshare-style: each tenant may carry a reserved byte quota
// (Config.TenantReserves / campsrv -tenant-reserve / journaled KindTenant
// records), split across shards the same way capacity is. Within a shard,
// each tenant runs its own instance of the configured eviction policy and a
// store-level arbiter enforces the shared capacity: when the pool is
// contended it evicts from the tenant whose next victim carries the lowest
// marginal priority (CAMP/GDS H − L) among tenants above their reserve — so
// one tenant's churn can take the shared pool but never another tenant's
// reserve.

// defaultTenantName is the tenant every connection starts on. Its keys are
// stored bare, so single-tenant deployments are byte-identical to the
// pre-tenancy layout.
const defaultTenantName = "default"

// maxTenantNameLen bounds tenant names; a name is also a journal record key
// and a stats label, so it stays short.
const maxTenantNameLen = 64

// Tenant protocol replies (see shard.go for the rest of the reply table).
var (
	replyBadTenant = []byte("CLIENT_ERROR bad tenant name\r\n")
	replyBadFlush  = []byte("CLIENT_ERROR bad flush_all command (want flush_all or flush_all all)\r\n")
	replyBadKey    = []byte("CLIENT_ERROR bad key\r\n")
)

// tenant is one registry entry: identity, the namespace prefix its stored
// keys carry, the server-wide reserved quota, and lifetime read counters
// (bumped with atomics on the get path, read by stats and metrics). Entries
// are created once and never removed, so hot paths hold *tenant with no
// registry lock.
type tenant struct {
	name string
	// prefix is name + NUL for non-default tenants, "" for the default.
	prefix string
	// reserve is the server-wide reserved quota in bytes; each shard
	// protects its slice of it (see store.shardReserve).
	reserve atomic.Int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	costSaved atomic.Uint64

	// quota is the optional shed-on-exceed request limit (Config.TenantQuotas
	// / campsrv -tenant-quota). Set once at construction, nil for unlimited
	// tenants, so the hot path pays one nil check. quotaShed counts requests
	// answered "SERVER_ERROR tenant over quota".
	quota     *tenantQuota
	quotaShed atomic.Uint64
}

// tenantRegistry is the server-wide tenant table. The default tenant always
// exists; others are created on first use (tenant verb, config reserve, or
// journal replay) and live for the server's lifetime.
type tenantRegistry struct {
	def *tenant

	// multi is set the first time a non-default tenant is created and never
	// cleared: per-shard stores route keys through it rather than their own
	// (rebuildable, flush-zeroed) tenant tables — see store.multiTenant.
	multi atomic.Bool

	mu     sync.RWMutex
	byName map[string]*tenant
}

func newTenantRegistry() *tenantRegistry {
	def := &tenant{name: defaultTenantName}
	return &tenantRegistry{
		def:    def,
		byName: map[string]*tenant{defaultTenantName: def},
	}
}

// ensure returns the named tenant, creating it if needed; created reports
// whether this call created it (the caller journals new tenants).
func (r *tenantRegistry) ensure(name string) (t *tenant, created bool) {
	if name == defaultTenantName {
		return r.def, false
	}
	r.mu.RLock()
	t = r.byName[name]
	r.mu.RUnlock()
	if t != nil {
		return t, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.byName[name]; t != nil {
		return t, false
	}
	t = &tenant{name: name, prefix: name + "\x00"}
	r.byName[name] = t
	r.multi.Store(true)
	return t, true
}

func (r *tenantRegistry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// list returns every tenant, default first, the rest sorted by name — the
// stable order stats and metrics emit.
func (r *tenantRegistry) list() []*tenant {
	r.mu.RLock()
	out := make([]*tenant, 0, len(r.byName))
	for _, t := range r.byName {
		if t != r.def {
			out = append(out, t)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return append([]*tenant{r.def}, out...)
}

// parseTenantName validates a wire token as a tenant name: printable ASCII
// and non-ASCII bytes, no NUL (the namespace delimiter), no control bytes,
// no spaces, bounded length. Fuzzed by FuzzParseTenantCommand.
func parseTenantName(tok []byte) (string, bool) {
	if len(tok) == 0 || len(tok) > maxTenantNameLen {
		return "", false
	}
	for _, b := range tok {
		if b <= ' ' || b == 0x7f {
			return "", false
		}
	}
	return string(tok), true
}

// tenantOf resolves a connection's tenant; nil connState tenant means the
// default.
func (s *Server) tenantOf(cs *connState) *tenant {
	if cs.tenant != nil {
		return cs.tenant
	}
	return s.tenants.def
}

// tenantOwnsKey reports whether a stored (namespaced) key belongs to t.
func tenantOwnsKey(t *tenant, key string) bool {
	if t.prefix == "" {
		return strings.IndexByte(key, 0) < 0
	}
	return strings.HasPrefix(key, t.prefix)
}

// keyInTenant is tenantOwnsKey by tenant name, for callers holding only a
// journal record's tenant key ("default" means the bare namespace).
func keyInTenant(name, key string) bool {
	if name == defaultTenantName {
		return strings.IndexByte(key, 0) < 0
	}
	return len(key) > len(name) && key[len(name)] == 0 && key[:len(name)] == name
}

// handleTenant serves the connection-scoped tenant verb:
//
//	tenant          → TENANT <current>
//	tenant <name>   → switch this connection to <name>, creating it on
//	                  first use; "tenant default" switches back.
//
// Switching is connection state only — it is resolved here, once, into
// connState, so the per-op hot path pays no lookup and no allocation.
func (s *Server) handleTenant(args [][]byte, cs *connState) error {
	if len(args) == 0 {
		return s.replyTenant(cs, s.tenantOf(cs).name)
	}
	if len(args) != 1 {
		return cs.send(replyBadTenant)
	}
	name, ok := parseTenantName(args[0])
	if !ok {
		return cs.send(replyBadTenant)
	}
	if name == defaultTenantName {
		cs.tenant = nil
		return s.replyTenant(cs, name)
	}
	cs.tenant = s.ensureTenantDurable(name)
	return s.replyTenant(cs, name)
}

func (s *Server) replyTenant(cs *connState, name string) error {
	out := append(cs.out[:0], "TENANT "...)
	out = append(out, name...)
	out = append(out, '\r', '\n')
	cs.out = out
	return cs.send(out)
}

// ensureTenantDurable returns the named tenant, journaling its creation to
// every shard the first time so a warm restart (or a compaction snapshot)
// restores the tenant and its quota even before any of its keys land.
func (s *Server) ensureTenantDurable(name string) *tenant {
	t, created := s.tenants.ensure(name)
	if created {
		s.journalTenant(t)
	}
	return t
}

// journalTenant records t in every shard: the per-shard policy state is
// created eagerly (so arbitration and restore see the tenant immediately)
// and a KindTenant record lands in each journal.
func (s *Server) journalTenant(t *tenant) {
	op := persist.Op{Kind: persist.KindTenant, Key: t.name, Reserve: t.reserve.Load()}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.store.ensureTenant(t.name)
		sh.journalLocked(op)
		sh.mu.Unlock()
	}
}
