package cache

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// keyedNodeOf returns a fresh node that carries key, for a test to read back
// through entryOf.
func keyedNodeOf(key string) *Node { return &(&keyedNode{key: key}).Node }

// queueOf links fresh nodes keyed by keys, in order, and returns them.
func queueOf(q *Queue, keys ...string) []*Node {
	nodes := make([]*Node, len(keys))
	for i, k := range keys {
		nodes[i] = keyedNodeOf(k)
		q.PushBack(nodes[i])
	}
	return nodes
}

// wantQueue checks q's order front to back, back to front, and its length.
func wantQueue(t *testing.T, q *Queue, want ...string) {
	t.Helper()
	var fwd, rev []string
	for n := q.Front(); n != nil; n = n.Next() {
		fwd = append(fwd, entryOf(n).key)
	}
	for n := q.Back(); n != nil; n = n.Prev() {
		rev = append(rev, entryOf(n).key)
	}
	slices.Reverse(rev)
	if !slices.Equal(fwd, want) || !slices.Equal(rev, want) || q.Len() != len(want) {
		t.Fatalf("queue = %v (backwards %v, Len %d), want %v", fwd, rev, q.Len(), want)
	}
}

func TestQueueEmpty(t *testing.T) {
	var q Queue
	if q.Len() != 0 || q.Front() != nil || q.Back() != nil {
		t.Fatalf("zero Queue: Len %d, Front %v, Back %v", q.Len(), q.Front(), q.Back())
	}
}

func TestQueuePushBackOrder(t *testing.T) {
	var q Queue
	queueOf(&q, "1", "2", "3", "4", "5")
	wantQueue(t, &q, "1", "2", "3", "4", "5")
}

func TestQueueRemoveMiddleFrontBack(t *testing.T) {
	var q Queue
	n := queueOf(&q, "1", "2", "3", "4", "5")
	q.Remove(n[2])
	wantQueue(t, &q, "1", "2", "4", "5")
	q.Remove(n[0])
	wantQueue(t, &q, "2", "4", "5")
	q.Remove(n[4])
	wantQueue(t, &q, "2", "4")
	q.Remove(n[1])
	q.Remove(n[3])
	wantQueue(t, &q)
	if n[2].Next() != nil || n[2].Prev() != nil {
		t.Fatal("a removed node keeps its links")
	}
}

func TestQueueMoveToBack(t *testing.T) {
	var q Queue
	n := queueOf(&q, "1", "2", "3")
	q.MoveToBack(n[0])
	wantQueue(t, &q, "2", "3", "1")
	// Moving the back node is a no-op.
	q.MoveToBack(n[0])
	wantQueue(t, &q, "2", "3", "1")
	q.MoveToBack(n[2])
	wantQueue(t, &q, "2", "1", "3")
}

// pushFront links a detached node at the front: the queue has no PushFront,
// so it is PushBack followed by MoveAfter with a nil mark.
func pushFront(q *Queue, n *Node) {
	q.PushBack(n)
	q.MoveAfter(n, nil)
}

func TestQueuePushFrontOrder(t *testing.T) {
	var q Queue
	for i := 1; i <= 5; i++ {
		pushFront(&q, keyedNodeOf(strconv.Itoa(i)))
	}
	wantQueue(t, &q, "5", "4", "3", "2", "1")
}

// TestQueuePushFrontNode links a node that has left another queue at the
// front of a non-empty one.
func TestQueuePushFrontNode(t *testing.T) {
	var a, b Queue
	n := queueOf(&a, "1")[0]
	a.Remove(n)
	queueOf(&b, "2")
	pushFront(&b, n)
	wantQueue(t, &b, "1", "2")
	wantQueue(t, &a)
}

// TestQueueMoveToFront moves linked nodes to the front, which is MoveAfter
// with a nil mark.
func TestQueueMoveToFront(t *testing.T) {
	var q Queue
	n := queueOf(&q, "1", "2", "3")
	q.MoveAfter(n[2], nil)
	wantQueue(t, &q, "3", "1", "2")
	q.MoveAfter(n[2], nil)
	wantQueue(t, &q, "3", "1", "2")
	q.MoveAfter(n[1], nil)
	wantQueue(t, &q, "2", "3", "1")
}

func TestQueueMoveAfter(t *testing.T) {
	var q Queue
	n := queueOf(&q, "1", "2", "3")
	q.MoveAfter(n[2], n[0])
	wantQueue(t, &q, "1", "3", "2")
	// Already in place, and after itself, are no-ops.
	q.MoveAfter(n[2], n[0])
	q.MoveAfter(n[1], n[1])
	wantQueue(t, &q, "1", "3", "2")
	q.MoveAfter(n[0], n[1])
	wantQueue(t, &q, "3", "2", "1")
}

func TestQueueNodeReuseAcrossQueues(t *testing.T) {
	var a, b Queue
	n := queueOf(&a, "x")[0]
	a.Remove(n)
	wantQueue(t, &a)
	b.PushBack(n)
	queueOf(&b, "y")
	wantQueue(t, &b, "x", "y")
}

// TestQueueRandomizedAgainstSlice cross-checks the queue against a plain
// slice model under a random operation mix.
func TestQueueRandomizedAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue
	var model []*Node
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // push back
			n := keyedNodeOf(strconv.Itoa(op))
			q.PushBack(n)
			model = append(model, n)
		case len(model) == 0:
		case r < 7: // remove
			i := rng.Intn(len(model))
			q.Remove(model[i])
			model = slices.Delete(model, i, i+1)
		case r < 8: // move to back
			i := rng.Intn(len(model))
			n := model[i]
			q.MoveToBack(n)
			model = append(slices.Delete(model, i, i+1), n)
		default: // move after a random mark, or to the front
			i, j := rng.Intn(len(model)), rng.Intn(len(model)+1)-1
			n := model[i]
			var mark *Node
			if j >= 0 {
				mark = model[j]
			}
			q.MoveAfter(n, mark)
			if n != mark {
				model = slices.Delete(model, i, i+1)
				model = slices.Insert(model, slices.Index(model, mark)+1, n)
			}
		}
	}
	want := make([]string, len(model))
	for i, n := range model {
		want[i] = entryOf(n).key
	}
	wantQueue(t, &q, want...)
}
