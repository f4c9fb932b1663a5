package cache

// Queue is a doubly linked list threaded through the Nodes themselves: LRU's
// recency queue, each of CAMP's per-ratio queues, and ARC's and GD-Wheel's
// lists. Both ends are nil-terminated, so walking it with Next or Prev needs
// no sentinel check. The zero value is an empty queue.
//
// A node records its neighbours, not its queue: it is in at most one queue
// at a time, and only that queue may be handed it.
type Queue struct {
	head, tail *Node
	len        int
}

// Next returns the node after n in its queue, or nil.
func (n *Node) Next() *Node { return n.next }

// Prev returns the node before n in its queue, or nil.
func (n *Node) Prev() *Node { return n.prev }

// Len returns the number of linked nodes.
func (q *Queue) Len() int { return q.len }

// Front returns the first node, or nil when the queue is empty.
func (q *Queue) Front() *Node { return q.head }

// Back returns the last node, or nil when the queue is empty.
func (q *Queue) Back() *Node { return q.tail }

// PushBack links a detached node at the back.
func (q *Queue) PushBack(n *Node) { q.insertAfter(n, q.tail) }

// Remove unlinks n, which is left detached and may be linked again.
func (q *Queue) Remove(n *Node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	n.prev, n.next = nil, nil
	q.len--
}

// MoveToBack moves n to the back.
func (q *Queue) MoveToBack(n *Node) { q.MoveAfter(n, q.tail) }

// MoveAfter moves n to just after mark, or to the front when mark is nil.
func (q *Queue) MoveAfter(n, mark *Node) {
	if n == mark || n.prev == mark {
		return
	}
	q.Remove(n)
	q.insertAfter(n, mark)
}

// insertAfter links a detached n after at, or at the front when at is nil.
func (q *Queue) insertAfter(n, at *Node) {
	n.prev = at
	if at != nil {
		n.next, at.next = at.next, n
	} else {
		n.next, q.head = q.head, n
	}
	if n.next != nil {
		n.next.prev = n
	} else {
		q.tail = n
	}
	q.len++
}
