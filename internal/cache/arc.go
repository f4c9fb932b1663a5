package cache

// ARC is a byte-weighted adaptation of Megiddo and Modha's Adaptive
// Replacement Cache (FAST'03), one of the recency/frequency-adaptive
// policies §5 contrasts CAMP against. ARC balances a recency list (T1) and
// a frequency list (T2) using ghost lists (B1, B2) of recently evicted keys
// to learn the workload's mix; like LRU — and unlike CAMP — it is oblivious
// to per-item cost.
//
// The classic algorithm assumes uniform page sizes; this adaptation
// measures list lengths and the adaptation target p in bytes, the standard
// generalization for variable-sized items.
type ARC struct {
	capacity int64
	p        int64 // adaptation target for T1, in bytes

	t1, t2, b1, b2 arcList
	entries        map[string]*arcEntry

	stats   Stats
	onEvict EvictFunc
}

// listID names the list an arcEntry is in.
type listID int

// ARC's lists.
const (
	inT1 listID = iota + 1
	inT2
	inB1
	inB2
)

// arcEntry is a key in one of ARC's (or 2Q's) lists, linked through its
// node.
type arcEntry struct {
	Node
	where listID
}

type arcList struct {
	Queue
	bytes int64
}

func (l *arcList) pushMRU(e *arcEntry) {
	l.PushBack(&e.Node)
	l.bytes += e.Size
}

func (l *arcList) remove(e *arcEntry) {
	l.Remove(&e.Node)
	l.bytes -= e.Size
}

// lru returns l's least recently used entry, found through the policy's key
// index; nil when l is empty.
func (l *arcList) lru(entries map[string]*arcEntry) *arcEntry {
	if n := l.Front(); n != nil {
		return entries[n.Key]
	}
	return nil
}

var _ Policy = (*ARC)(nil)

// NewARC returns a byte-weighted ARC policy.
func NewARC(capacity int64) *ARC {
	if capacity < 0 {
		capacity = 0
	}
	return &ARC{
		capacity: capacity,
		entries:  make(map[string]*arcEntry),
	}
}

// Name implements Policy.
func (a *ARC) Name() string { return "arc" }

// Get implements Policy.
func (a *ARC) Get(key string) bool {
	e, ok := a.entries[key]
	if !ok || (e.where != inT1 && e.where != inT2) {
		a.stats.Misses++
		return false
	}
	// Case I: hit in T1 or T2 promotes to T2 MRU.
	a.listOf(e.where).remove(e)
	e.where = inT2
	a.t2.pushMRU(e)
	a.stats.Hits++
	return true
}

// Set implements Policy.
func (a *ARC) Set(key string, size, cost int64) bool {
	if size < 0 {
		size = 0
	}
	if size > a.capacity {
		a.dropIfGhost(key)
		a.stats.Rejected++
		return false
	}
	e, ok := a.entries[key]
	switch {
	case ok && (e.where == inT1 || e.where == inT2):
		// Resident update: adjust size in place and promote.
		a.listOf(e.where).remove(e)
		e.Size, e.Cost = size, cost
		e.where = inT2
		for a.residentBytes()+size > a.capacity {
			if !a.replace(false) {
				delete(a.entries, key)
				a.stats.Rejected++
				return false
			}
		}
		a.t2.pushMRU(e)
		a.stats.Updates++
		return true
	case ok && e.where == inB1:
		// Case II: ghost hit in B1 -> grow the recency target.
		a.p = minInt64(a.capacity, a.p+maxInt64(e.Size, a.b2.bytes/maxInt64(a.b1.bytes, 1)*e.Size))
		a.b1.remove(e)
		e.Size, e.Cost = size, cost
		for a.residentBytes()+size > a.capacity {
			if !a.replace(false) {
				delete(a.entries, key)
				a.stats.Rejected++
				return false
			}
		}
		e.where = inT2
		a.t2.pushMRU(e)
		a.stats.Sets++
		return true
	case ok && e.where == inB2:
		// Case III: ghost hit in B2 -> grow the frequency target.
		a.p = maxInt64(0, a.p-maxInt64(e.Size, a.b1.bytes/maxInt64(a.b2.bytes, 1)*e.Size))
		a.b2.remove(e)
		e.Size, e.Cost = size, cost
		for a.residentBytes()+size > a.capacity {
			if !a.replace(true) {
				delete(a.entries, key)
				a.stats.Rejected++
				return false
			}
		}
		e.where = inT2
		a.t2.pushMRU(e)
		a.stats.Sets++
		return true
	default:
		// Case IV: brand-new key.
		if a.t1.bytes+a.b1.bytes >= a.capacity {
			if a.t1.bytes < a.capacity {
				a.dropGhostLRU(&a.b1, inB1)
			} else if lru := a.t1.lru(a.entries); lru != nil {
				// B1 is empty and T1 fills the cache: evict
				// T1's LRU outright.
				a.evict(lru, false)
			}
		} else if total := a.residentBytes() + a.b1.bytes + a.b2.bytes; total >= a.capacity {
			if total >= 2*a.capacity {
				a.dropGhostLRU(&a.b2, inB2)
			}
		}
		for a.residentBytes()+size > a.capacity {
			if !a.replace(false) {
				a.stats.Rejected++
				return false
			}
		}
		ne := &arcEntry{Node: Node{Key: key, Size: size, Cost: cost}, where: inT1}
		a.entries[key] = ne
		a.t1.pushMRU(ne)
		a.stats.Sets++
		return true
	}
}

// replace implements ARC's REPLACE: evict from T1 if it exceeds the target
// (or ties it on a B2 ghost hit), else from T2. The victim's key moves to
// the corresponding ghost list.
func (a *ARC) replace(b2Hit bool) bool {
	t1LRU := a.t1.lru(a.entries)
	if t1LRU != nil && (a.t1.bytes > a.p || (b2Hit && a.t1.bytes >= a.p)) {
		a.evict(t1LRU, true)
		return true
	}
	if t2LRU := a.t2.lru(a.entries); t2LRU != nil {
		a.evict(t2LRU, true)
		return true
	}
	if t1LRU != nil {
		a.evict(t1LRU, true)
		return true
	}
	return false
}

// evict removes a resident entry; when ghost is true the key is remembered
// in the matching ghost list.
func (a *ARC) evict(e *arcEntry, ghost bool) {
	a.stats.Evictions++
	a.stats.EvictedBytes += uint64(e.Size)
	ev := e.Entry()
	from := e.where
	a.listOf(from).remove(e)
	if ghost {
		if from == inT1 {
			e.where = inB1
			a.b1.pushMRU(e)
		} else {
			e.where = inB2
			a.b2.pushMRU(e)
		}
	} else {
		delete(a.entries, e.Key)
	}
	if a.onEvict != nil {
		a.onEvict(ev)
	}
}

// EvictOne removes the preferred victim, firing the eviction callback.
func (a *ARC) EvictOne() (Entry, bool) {
	var victim *arcEntry
	if a.t1.bytes > a.p {
		victim = a.t1.lru(a.entries)
	}
	if victim == nil {
		victim = a.t2.lru(a.entries)
	}
	if victim == nil {
		victim = a.t1.lru(a.entries)
	}
	if victim == nil {
		return Entry{}, false
	}
	e := victim.Entry()
	a.evict(victim, true)
	return e, true
}

func (a *ARC) dropGhostLRU(l *arcList, where listID) {
	if lru := l.lru(a.entries); lru != nil && lru.where == where {
		l.remove(lru)
		delete(a.entries, lru.Key)
	}
}

func (a *ARC) dropIfGhost(key string) {
	if e, ok := a.entries[key]; ok {
		if e.where == inB1 || e.where == inB2 {
			a.listOf(e.where).remove(e)
			delete(a.entries, key)
		}
	}
}

// Delete implements Policy.
func (a *ARC) Delete(key string) bool {
	e, ok := a.entries[key]
	if !ok {
		return false
	}
	resident := e.where == inT1 || e.where == inT2
	a.listOf(e.where).remove(e)
	delete(a.entries, key)
	return resident
}

// Contains implements Policy.
func (a *ARC) Contains(key string) bool {
	e, ok := a.entries[key]
	return ok && (e.where == inT1 || e.where == inT2)
}

// Peek implements Policy.
func (a *ARC) Peek(key string) (Entry, bool) {
	e, ok := a.entries[key]
	if !ok || (e.where != inT1 && e.where != inT2) {
		return Entry{}, false
	}
	return e.Entry(), true
}

// Len implements Policy (resident items only).
func (a *ARC) Len() int {
	return a.t1.Len() + a.t2.Len()
}

// Used implements Policy.
func (a *ARC) Used() int64 { return a.residentBytes() }

// Capacity implements Policy.
func (a *ARC) Capacity() int64 { return a.capacity }

// Stats implements Policy.
func (a *ARC) Stats() Stats { return a.stats }

// SetEvictFunc implements Policy.
func (a *ARC) SetEvictFunc(fn EvictFunc) { a.onEvict = fn }

// Target returns the current byte target for T1, for tests.
func (a *ARC) Target() int64 { return a.p }

func (a *ARC) residentBytes() int64 { return a.t1.bytes + a.t2.bytes }

func (a *ARC) listOf(w listID) *arcList {
	switch w {
	case inT1:
		return &a.t1
	case inT2:
		return &a.t2
	case inB1:
		return &a.b1
	default:
		return &a.b2
	}
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
