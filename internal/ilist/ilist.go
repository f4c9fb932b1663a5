// Package ilist provides a typed, intrusive-style doubly linked list.
//
// It mirrors the semantics of container/list but is generic, avoiding the
// interface{} boxing cost on the cache hot path, and exposes only the
// operations the eviction policies need. The zero value of List is not
// usable; construct lists with New.
package ilist

// Node is an element of a List. A Node must not be inserted into more than
// one list, nor twice into the same list.
type Node[T any] struct {
	prev, next *Node[T]
	list       *List[T]

	// Value is the payload carried by this node.
	Value T
}

// Next returns the next list node or nil.
func (n *Node[T]) Next() *Node[T] {
	if p := n.next; n.list != nil && p != &n.list.root {
		return p
	}
	return nil
}

// Prev returns the previous list node or nil.
func (n *Node[T]) Prev() *Node[T] {
	if p := n.prev; n.list != nil && p != &n.list.root {
		return p
	}
	return nil
}

// List is a doubly linked list with a sentinel root node.
type List[T any] struct {
	root Node[T]
	len  int
}

// New returns an initialized, empty list.
func New[T any]() *List[T] {
	l := &List[T]{}
	l.root.next = &l.root
	l.root.prev = &l.root
	return l
}

// Len returns the number of elements in the list. O(1).
func (l *List[T]) Len() int { return l.len }

// Front returns the first node of the list or nil if the list is empty.
func (l *List[T]) Front() *Node[T] {
	if l.len == 0 {
		return nil
	}
	return l.root.next
}

// Back returns the last node of the list or nil if the list is empty.
func (l *List[T]) Back() *Node[T] {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// PushFront inserts a new node carrying v at the front and returns it.
func (l *List[T]) PushFront(v T) *Node[T] {
	n := &Node[T]{Value: v}
	l.insert(n, &l.root)
	return n
}

// PushBack inserts a new node carrying v at the back and returns it.
func (l *List[T]) PushBack(v T) *Node[T] {
	n := &Node[T]{Value: v}
	l.insert(n, l.root.prev)
	return n
}

// PushBackNode links an existing, detached node at the back of the list.
// This allows nodes to be reused across lists without reallocation.
func (l *List[T]) PushBackNode(n *Node[T]) {
	if n.list != nil {
		panic("ilist: PushBackNode of a node that is already in a list")
	}
	l.insert(n, l.root.prev)
}

// PushFrontNode links an existing, detached node at the front of the list.
func (l *List[T]) PushFrontNode(n *Node[T]) {
	if n.list != nil {
		panic("ilist: PushFrontNode of a node that is already in a list")
	}
	l.insert(n, &l.root)
}

// Remove unlinks n from the list and returns its value. The node may be
// reused afterwards. Remove panics if n is not in l.
func (l *List[T]) Remove(n *Node[T]) T {
	if n.list != l {
		panic("ilist: Remove of a node from a different list")
	}
	l.unlink(n)
	return n.Value
}

// MoveToBack moves n to the back of the list (most-recently-used position).
func (l *List[T]) MoveToBack(n *Node[T]) {
	if n.list != l {
		panic("ilist: MoveToBack of a node from a different list")
	}
	if l.root.prev == n {
		return
	}
	l.unlink(n)
	l.insert(n, l.root.prev)
}

// MoveToFront moves n to the front of the list.
func (l *List[T]) MoveToFront(n *Node[T]) {
	if n.list != l {
		panic("ilist: MoveToFront of a node from a different list")
	}
	if l.root.next == n {
		return
	}
	l.unlink(n)
	l.insert(n, &l.root)
}

// MoveAfter moves n to the position immediately after mark.
func (l *List[T]) MoveAfter(n, mark *Node[T]) {
	if n.list != l || mark.list != l {
		panic("ilist: MoveAfter of a node from a different list")
	}
	if n == mark || mark.next == n {
		return
	}
	l.unlink(n)
	l.insert(n, mark)
}

// Contains reports whether n is currently linked into l.
func (l *List[T]) Contains(n *Node[T]) bool { return n.list == l }

// insert links n after at.
func (l *List[T]) insert(n, at *Node[T]) {
	n.prev = at
	n.next = at.next
	n.prev.next = n
	n.next.prev = n
	n.list = l
	l.len++
}

// unlink removes n from its list.
func (l *List[T]) unlink(n *Node[T]) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = nil
	n.list = nil
	l.len--
}
