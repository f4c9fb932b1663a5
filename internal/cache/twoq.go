package cache

// TwoQ is the full version of Johnson and Shasha's 2Q (VLDB'94), another
// recency/frequency-balancing policy from §5's related work. New items
// enter a FIFO probation queue (A1in); items evicted from probation are
// remembered in a ghost queue (A1out); a reference while in the ghost queue
// promotes the item to the protected LRU main queue (Am). Like LRU and ARC
// it ignores cost.
//
// It is an Ordering, with each resident node's queue in its Aux word; the
// embedded Keyed makes it a Policy. The ghosts are 2Q's own nodes.
type TwoQ struct {
	Keyed
	capacity int64
	kin      int64 // byte budget for A1in (default capacity/4)
	kout     int64 // byte budget for A1out ghosts (default capacity/2)

	a1in, am, a1out arcList          // reuse the byte-counting list helper
	ghosts          map[string]*Node // the keys in A1out: non-residents only

	stats   Stats
	onEvict func(*Node)
}

// 2Q's queues, as a node's Aux word holds them; 0 is a fresh node.
const (
	inA1in = iota + 1
	inAm
	inA1out
)

var (
	_ Policy   = (*TwoQ)(nil)
	_ Ordering = (*TwoQ)(nil)
)

// NewTwoQ returns a 2Q policy with the standard 25%/50% queue tuning.
func NewTwoQ(capacity int64) *TwoQ {
	capacity = max(capacity, 0)
	q := &TwoQ{
		capacity: capacity,
		kin:      capacity / 4,
		kout:     capacity / 2,
		ghosts:   make(map[string]*Node),
	}
	q.Keyed = NewKeyed(q, &q.stats)
	return q
}

// Name implements Ordering.
func (q *TwoQ) Name() string { return "2q" }

// Touch implements Ordering. 2Q leaves probation items in place on a hit;
// promotion happens only via the ghost queue.
func (q *TwoQ) Touch(n *Node) {
	if n.Aux == inAm {
		q.am.MoveToBack(n)
	}
	q.stats.Hits++
}

// Insert implements Ordering. A resident update stays in its queue; a fresh
// node whose key is a ghost is promoted into Am, any other enters A1in.
func (q *TwoQ) Insert(n *Node) bool {
	if n.Size > q.capacity {
		q.stats.Rejected++
		return false
	}
	where := n.Aux
	if where == 0 {
		where = inA1in
		if g := q.ghosts[n.Key]; g != nil {
			q.dropGhost(g)
			where = inAm
		}
	}
	// Evict per the 2Q "reclaimfor" rule until n fits.
	for q.a1in.bytes+q.am.bytes+n.Size > q.capacity {
		if q.Evict() == nil {
			q.stats.Rejected++
			return false
		}
	}
	n.Aux = where
	q.listFor(where).push(n)
	q.stats.Sets++
	return true
}

// InsertAt implements Ordering: 2Q has no priority to pin.
func (q *TwoQ) InsertAt(n *Node, _, _ uint64) bool { return q.Insert(n) }

// Remove implements Ordering.
func (q *TwoQ) Remove(n *Node) { q.listFor(n.Aux).remove(n) }

// Victim implements Ordering, with urgency 0: if A1in exceeds its share (or
// Am is empty) its FIFO head, otherwise the main queue's LRU.
func (q *TwoQ) Victim() (*Node, float64) {
	if q.a1in.bytes > q.kin || q.am.Len() == 0 {
		return q.a1in.Front(), 0
	}
	return q.am.Front(), 0
}

// Evict implements Ordering: A1in victims are remembered in the ghost
// queue. The callback fires last.
func (q *TwoQ) Evict() *Node {
	n, _ := q.Victim()
	if n == nil {
		return nil
	}
	q.listFor(n.Aux).remove(n)
	q.stats.Evictions++
	q.stats.EvictedBytes += uint64(n.Size)
	if n.Aux == inA1in {
		g := &Node{Key: n.Key, Size: n.Size, Aux: inA1out}
		q.ghosts[g.Key] = g
		q.a1out.push(g)
		for q.a1out.bytes > q.kout {
			q.dropGhost(q.a1out.Front())
		}
	}
	if q.onEvict != nil {
		q.onEvict(n)
	}
	return n
}

func (q *TwoQ) dropGhost(g *Node) {
	q.a1out.remove(g)
	delete(q.ghosts, g.Key)
}

// Visit implements Ordering, in the order successive Evicts would take the
// residents.
func (q *TwoQ) Visit(visit func(n *Node, prio, class uint64) bool) {
	visitLists(&q.a1in, q.kin, &q.am, visit)
}

// Prioritized implements Ordering.
func (q *TwoQ) Prioritized() bool { return false }

// Scale implements Ordering.
func (q *TwoQ) Scale() (uint64, bool) { return 0, false }

// RestoreScale implements Ordering.
func (q *TwoQ) RestoreScale(uint64) {}

// Len implements Ordering (resident items only).
func (q *TwoQ) Len() int { return q.a1in.Len() + q.am.Len() }

// Used implements Ordering.
func (q *TwoQ) Used() int64 { return q.a1in.bytes + q.am.bytes }

// Capacity implements Ordering.
func (q *TwoQ) Capacity() int64 { return q.capacity }

// Stats implements Ordering.
func (q *TwoQ) Stats() Stats { return q.stats }

// OnEvict implements Ordering.
func (q *TwoQ) OnEvict(fn func(*Node)) { q.onEvict = fn }

func (q *TwoQ) listFor(w uint64) *arcList {
	switch w {
	case inA1in:
		return &q.a1in
	case inAm:
		return &q.am
	default:
		return &q.a1out
	}
}
