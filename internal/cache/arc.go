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
//
// It is an Ordering, with each resident node's list in its Aux word; the
// embedded Keyed makes it a Policy. The ghosts are ARC's own nodes: an
// evicted node goes back to its caller, and only its key and size stay.
type ARC struct {
	Keyed
	capacity int64
	p        int64 // adaptation target for T1, in bytes

	t1, t2, b1, b2 arcList
	ghosts         map[string]*Node // the keys in B1 and B2: non-residents only

	stats   Stats
	onEvict func(*Node)
}

// ARC's lists, as a node's Aux word holds them; 0 is a fresh node.
const (
	inT1 = iota + 1
	inT2
	inB1
	inB2
)

// arcList is one of ARC's (or 2Q's) lists, with its bytes.
type arcList struct {
	Queue
	bytes int64
}

func (l *arcList) push(n *Node) {
	l.PushBack(n)
	l.bytes += n.Size
}

func (l *arcList) remove(n *Node) {
	l.Remove(n)
	l.bytes -= n.Size
}

// visitLists calls visit in the order ARC and 2Q evict: first's least
// recently used nodes while first holds more than budget bytes, then all of
// second, then the rest of first.
func visitLists(first *arcList, budget int64, second *arcList, visit func(n *Node, prio, class uint64) bool) {
	n, rest := first.Front(), first.bytes
	for ; n != nil && rest > budget; n = n.Next() {
		if !visit(n, 0, 0) {
			return
		}
		rest -= n.Size
	}
	for m := second.Front(); m != nil; m = m.Next() {
		if !visit(m, 0, 0) {
			return
		}
	}
	for ; n != nil && visit(n, 0, 0); n = n.Next() {
	}
}

var (
	_ Policy   = (*ARC)(nil)
	_ Ordering = (*ARC)(nil)
)

// NewARC returns a byte-weighted ARC policy.
func NewARC(capacity int64) *ARC {
	a := &ARC{capacity: max(capacity, 0), ghosts: make(map[string]*Node)}
	a.Keyed = NewKeyed(a, &a.stats)
	return a
}

// Name implements Ordering.
func (a *ARC) Name() string { return "arc" }

// Touch implements Ordering: a hit in T1 or T2 promotes to T2's MRU end
// (case I).
func (a *ARC) Touch(n *Node) {
	a.listOf(n.Aux).remove(n)
	n.Aux = inT2
	a.t2.push(n)
	a.stats.Hits++
}

// Insert implements Ordering. A resident update (a node Removed from T1 or
// T2) goes to T2; a fresh node whose key is a ghost adapts the target and
// goes to T2 (cases II and III); any other fresh node goes to T1 (case IV).
func (a *ARC) Insert(n *Node) bool {
	if n.Size > a.capacity {
		a.dropGhost(a.ghosts[n.Key])
		a.stats.Rejected++
		return false
	}
	where, b2Hit := uint64(inT2), false
	if n.Aux == 0 {
		switch g := a.ghosts[n.Key]; {
		case g != nil && g.Aux == inB1:
			// Case II: ghost hit in B1 -> grow the recency target.
			a.p = min(a.capacity, a.p+max(g.Size, a.b2.bytes/max(a.b1.bytes, 1)*g.Size))
			a.dropGhost(g)
		case g != nil:
			// Case III: ghost hit in B2 -> grow the frequency target.
			a.p = max(0, a.p-max(g.Size, a.b1.bytes/max(a.b2.bytes, 1)*g.Size))
			a.dropGhost(g)
			b2Hit = true
		default:
			// Case IV: brand-new key.
			where = inT1
			if a.t1.bytes+a.b1.bytes >= a.capacity {
				if a.t1.bytes < a.capacity {
					a.dropGhost(a.b1.Front())
				} else if lru := a.t1.Front(); lru != nil {
					// B1 is empty and T1 fills the cache: evict
					// T1's LRU outright.
					a.evict(lru, false)
				}
			} else if a.residentBytes()+a.b1.bytes+a.b2.bytes >= 2*a.capacity {
				a.dropGhost(a.b2.Front())
			}
		}
	}
	for a.residentBytes()+n.Size > a.capacity {
		victim := a.victim(b2Hit)
		if victim == nil {
			a.stats.Rejected++
			return false
		}
		a.evict(victim, true)
	}
	n.Aux = where
	a.listOf(where).push(n)
	a.stats.Sets++
	return true
}

// InsertAt implements Ordering: ARC has no priority to pin.
func (a *ARC) InsertAt(n *Node, _, _ uint64) bool { return a.Insert(n) }

// Remove implements Ordering.
func (a *ARC) Remove(n *Node) { a.listOf(n.Aux).remove(n) }

// victim is ARC's REPLACE choice: T1's LRU if T1 exceeds the target (or ties
// it on a B2 ghost hit), else T2's LRU, else T1's; nil when nothing is
// resident.
func (a *ARC) victim(b2Hit bool) *Node {
	n := a.t1.Front()
	if n == nil || !(a.t1.bytes > a.p || b2Hit && a.t1.bytes >= a.p) {
		if m := a.t2.Front(); m != nil {
			n = m
		}
	}
	return n
}

// Victim implements Ordering, with urgency 0: ARC is cost-oblivious.
func (a *ARC) Victim() (*Node, float64) { return a.victim(false), 0 }

// Evict implements Ordering: the victim's key moves to its ghost list.
func (a *ARC) Evict() *Node {
	n := a.victim(false)
	if n != nil {
		a.evict(n, true)
	}
	return n
}

// evict removes a resident node; when ghost is true its key is remembered in
// the matching ghost list. The callback fires last.
func (a *ARC) evict(n *Node, ghost bool) {
	a.stats.Evictions++
	a.stats.EvictedBytes += uint64(n.Size)
	a.listOf(n.Aux).remove(n)
	if ghost {
		g := &Node{Key: n.Key, Size: n.Size, Aux: inB1}
		if n.Aux == inT2 {
			g.Aux = inB2
		}
		a.ghosts[g.Key] = g
		a.listOf(g.Aux).push(g)
	}
	if a.onEvict != nil {
		a.onEvict(n)
	}
}

// dropGhost forgets a ghost; nil is a no-op.
func (a *ARC) dropGhost(g *Node) {
	if g != nil {
		a.listOf(g.Aux).remove(g)
		delete(a.ghosts, g.Key)
	}
}

// Visit implements Ordering, in the order successive Evicts would take the
// residents.
func (a *ARC) Visit(visit func(n *Node, prio, class uint64) bool) {
	visitLists(&a.t1, a.p, &a.t2, visit)
}

// Prioritized implements Ordering.
func (a *ARC) Prioritized() bool { return false }

// Scale implements Ordering.
func (a *ARC) Scale() (uint64, bool) { return 0, false }

// RestoreScale implements Ordering.
func (a *ARC) RestoreScale(uint64) {}

// Len implements Ordering (resident items only).
func (a *ARC) Len() int { return a.t1.Len() + a.t2.Len() }

// Used implements Ordering.
func (a *ARC) Used() int64 { return a.residentBytes() }

// Capacity implements Ordering.
func (a *ARC) Capacity() int64 { return a.capacity }

// Stats implements Ordering.
func (a *ARC) Stats() Stats { return a.stats }

// OnEvict implements Ordering.
func (a *ARC) OnEvict(fn func(*Node)) { a.onEvict = fn }

// Target returns the current byte target for T1, for tests.
func (a *ARC) Target() int64 { return a.p }

func (a *ARC) residentBytes() int64 { return a.t1.bytes + a.t2.bytes }

func (a *ARC) listOf(w uint64) *arcList {
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
