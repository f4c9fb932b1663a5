package cache

// TwoQ is the full version of Johnson and Shasha's 2Q (VLDB'94), another
// recency/frequency-balancing policy from §5's related work. New items
// enter a FIFO probation queue (A1in); items evicted from probation are
// remembered in a ghost queue (A1out); a reference while in the ghost queue
// promotes the item to the protected LRU main queue (Am). Like LRU and ARC
// it ignores cost.
type TwoQ struct {
	capacity int64
	kin      int64 // byte budget for A1in (default capacity/4)
	kout     int64 // byte budget for A1out ghosts (default capacity/2)

	a1in, am, a1out arcList // reuse the byte-counting list helper
	entries         map[string]*arcEntry

	stats   Stats
	onEvict EvictFunc
}

// 2Q's lists.
const (
	inA1in listID = iota + 1
	inAm
	inA1out
)

var _ Policy = (*TwoQ)(nil)

// NewTwoQ returns a 2Q policy with the standard 25%/50% queue tuning.
func NewTwoQ(capacity int64) *TwoQ {
	if capacity < 0 {
		capacity = 0
	}
	return &TwoQ{
		capacity: capacity,
		kin:      capacity / 4,
		kout:     capacity / 2,
		entries:  make(map[string]*arcEntry),
	}
}

// Name implements Policy.
func (q *TwoQ) Name() string { return "2q" }

// Get implements Policy.
func (q *TwoQ) Get(key string) bool {
	r, ok := q.entries[key]
	if !ok || r.where == inA1out {
		q.stats.Misses++
		return false
	}
	switch r.where {
	case inAm:
		q.am.MoveToBack(&r.Node)
	case inA1in:
		// 2Q leaves probation items in place on a hit; promotion
		// happens only via the ghost queue.
	}
	q.stats.Hits++
	return true
}

// Set implements Policy.
func (q *TwoQ) Set(key string, size, cost int64) bool {
	if size < 0 {
		size = 0
	}
	if size > q.capacity {
		q.stats.Rejected++
		return false
	}
	if r, ok := q.entries[key]; ok {
		switch r.where {
		case inA1out:
			// Ghost hit: promote into Am.
			q.a1out.remove(r)
			r.Size, r.Cost = size, cost
			if !q.makeRoom(size) {
				delete(q.entries, key)
				q.stats.Rejected++
				return false
			}
			r.where = inAm
			q.am.pushMRU(r)
			q.stats.Sets++
			return true
		default:
			// Resident update.
			q.listFor(r.where).remove(r)
			r.Size, r.Cost = size, cost
			if !q.makeRoom(size) {
				delete(q.entries, key)
				q.stats.Rejected++
				return false
			}
			q.listFor(r.where).pushMRU(r)
			q.stats.Updates++
			return true
		}
	}
	if !q.makeRoom(size) {
		q.stats.Rejected++
		return false
	}
	e := &arcEntry{Node: Node{Key: key, Size: size, Cost: cost}, where: inA1in}
	q.entries[key] = e
	q.a1in.pushMRU(e)
	q.stats.Sets++
	return true
}

// makeRoom evicts per the 2Q "reclaimfor" rule until size bytes fit.
func (q *TwoQ) makeRoom(size int64) bool {
	for q.a1in.bytes+q.am.bytes+size > q.capacity {
		if !q.reclaim() {
			return false
		}
	}
	return true
}

func (q *TwoQ) reclaim() bool {
	// If A1in exceeds its share, demote its FIFO head to the ghost list;
	// otherwise evict the main queue's LRU.
	if q.a1in.bytes > q.kin || q.am.Len() == 0 {
		head := q.a1in.lru(q.entries)
		if head == nil {
			return false
		}
		q.evictResident(head, inA1in, true)
		return true
	}
	lru := q.am.lru(q.entries)
	if lru == nil {
		return false
	}
	q.evictResident(lru, inAm, false)
	return true
}

// evictResident removes a resident entry; A1in victims are remembered in
// the ghost queue.
func (q *TwoQ) evictResident(e *arcEntry, from listID, ghost bool) {
	q.listFor(from).remove(e)
	q.stats.Evictions++
	q.stats.EvictedBytes += uint64(e.Size)
	ev := e.Entry()
	if ghost {
		e.where = inA1out
		q.a1out.pushMRU(e)
		for q.a1out.bytes > q.kout {
			old := q.a1out.lru(q.entries)
			if old == nil {
				break
			}
			q.a1out.remove(old)
			delete(q.entries, old.Key)
		}
	} else {
		delete(q.entries, e.Key)
	}
	if q.onEvict != nil {
		q.onEvict(ev)
	}
}

// EvictOne removes the preferred victim, firing the eviction callback.
func (q *TwoQ) EvictOne() (Entry, bool) {
	var victim *arcEntry
	if q.a1in.bytes > q.kin || q.am.Len() == 0 {
		victim = q.a1in.lru(q.entries)
	}
	if victim == nil {
		victim = q.am.lru(q.entries)
	}
	if victim == nil {
		victim = q.a1in.lru(q.entries)
	}
	if victim == nil {
		return Entry{}, false
	}
	e := victim.Entry()
	q.evictResident(victim, victim.where, victim.where == inA1in)
	return e, true
}

// Delete implements Policy.
func (q *TwoQ) Delete(key string) bool {
	r, ok := q.entries[key]
	if !ok {
		return false
	}
	q.listFor(r.where).remove(r)
	delete(q.entries, key)
	return r.where != inA1out
}

// Contains implements Policy.
func (q *TwoQ) Contains(key string) bool {
	r, ok := q.entries[key]
	return ok && r.where != inA1out
}

// Peek implements Policy.
func (q *TwoQ) Peek(key string) (Entry, bool) {
	r, ok := q.entries[key]
	if !ok || r.where == inA1out {
		return Entry{}, false
	}
	return r.Entry(), true
}

// Len implements Policy (resident items only).
func (q *TwoQ) Len() int { return q.a1in.Len() + q.am.Len() }

// Used implements Policy.
func (q *TwoQ) Used() int64 { return q.a1in.bytes + q.am.bytes }

// Capacity implements Policy.
func (q *TwoQ) Capacity() int64 { return q.capacity }

// Stats implements Policy.
func (q *TwoQ) Stats() Stats { return q.stats }

// SetEvictFunc implements Policy.
func (q *TwoQ) SetEvictFunc(fn EvictFunc) { q.onEvict = fn }

func (q *TwoQ) listFor(w listID) *arcList {
	switch w {
	case inA1in:
		return &q.a1in
	case inAm:
		return &q.am
	default:
		return &q.a1out
	}
}
