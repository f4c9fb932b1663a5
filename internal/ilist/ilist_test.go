package ilist

import (
	"math/rand"
	"testing"
)

func collect[T any](l *List[T]) []T {
	var out []T
	for n := l.Front(); n != nil; n = n.Next() {
		out = append(out, n.Value)
	}
	return out
}

func collectReverse[T any](l *List[T]) []T {
	var out []T
	for n := l.Back(); n != nil; n = n.Prev() {
		out = append(out, n.Value)
	}
	return out
}

func wantOrder(t *testing.T, l *List[int], want []int) {
	t.Helper()
	got := collect(l)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (got %v want %v)", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	rev := collectReverse(l)
	for i := range want {
		if rev[len(rev)-1-i] != want[i] {
			t.Fatalf("reverse order = %v, want reverse of %v", rev, want)
		}
	}
	if l.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", l.Len(), len(want))
	}
}

func TestEmptyList(t *testing.T) {
	l := New[int]()
	if l.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", l.Len())
	}
	if l.Front() != nil {
		t.Fatal("Front() of empty list should be nil")
	}
	if l.Back() != nil {
		t.Fatal("Back() of empty list should be nil")
	}
}

func TestPushBackOrder(t *testing.T) {
	l := New[int]()
	for i := 1; i <= 5; i++ {
		l.PushBack(i)
	}
	wantOrder(t, l, []int{1, 2, 3, 4, 5})
}

func TestPushFrontOrder(t *testing.T) {
	l := New[int]()
	for i := 1; i <= 5; i++ {
		l.PushFront(i)
	}
	wantOrder(t, l, []int{5, 4, 3, 2, 1})
}

func TestRemoveMiddleFrontBack(t *testing.T) {
	l := New[int]()
	var nodes []*Node[int]
	for i := 1; i <= 5; i++ {
		nodes = append(nodes, l.PushBack(i))
	}
	if v := l.Remove(nodes[2]); v != 3 {
		t.Fatalf("Remove returned %d, want 3", v)
	}
	wantOrder(t, l, []int{1, 2, 4, 5})
	l.Remove(nodes[0])
	wantOrder(t, l, []int{2, 4, 5})
	l.Remove(nodes[4])
	wantOrder(t, l, []int{2, 4})
	l.Remove(nodes[1])
	l.Remove(nodes[3])
	wantOrder(t, l, nil)
}

func TestMoveToBack(t *testing.T) {
	l := New[int]()
	n1 := l.PushBack(1)
	l.PushBack(2)
	n3 := l.PushBack(3)
	l.MoveToBack(n1)
	wantOrder(t, l, []int{2, 3, 1})
	// Moving the back node is a no-op.
	l.MoveToBack(n1)
	wantOrder(t, l, []int{2, 3, 1})
	l.MoveToBack(n3)
	wantOrder(t, l, []int{2, 1, 3})
}

func TestMoveToFront(t *testing.T) {
	l := New[int]()
	l.PushBack(1)
	n2 := l.PushBack(2)
	n3 := l.PushBack(3)
	l.MoveToFront(n3)
	wantOrder(t, l, []int{3, 1, 2})
	l.MoveToFront(n3)
	wantOrder(t, l, []int{3, 1, 2})
	l.MoveToFront(n2)
	wantOrder(t, l, []int{2, 3, 1})
}

func TestMoveAfter(t *testing.T) {
	l := New[int]()
	n1 := l.PushBack(1)
	n2 := l.PushBack(2)
	n3 := l.PushBack(3)
	l.MoveAfter(n3, n1)
	wantOrder(t, l, []int{1, 3, 2})
	// Already in place, and after itself, are no-ops.
	l.MoveAfter(n3, n1)
	l.MoveAfter(n2, n2)
	wantOrder(t, l, []int{1, 3, 2})
	l.MoveAfter(n1, n2)
	wantOrder(t, l, []int{3, 2, 1})
}

func TestNodeReuseAcrossLists(t *testing.T) {
	a := New[string]()
	b := New[string]()
	n := a.PushBack("x")
	if !a.Contains(n) {
		t.Fatal("a should contain n")
	}
	a.Remove(n)
	if a.Contains(n) {
		t.Fatal("a should not contain n after Remove")
	}
	b.PushBackNode(n)
	if !b.Contains(n) {
		t.Fatal("b should contain n after PushBackNode")
	}
	if got := collect(b); len(got) != 1 || got[0] != "x" {
		t.Fatalf("b = %v, want [x]", got)
	}
}

func TestPushFrontNode(t *testing.T) {
	l := New[int]()
	l.PushBack(2)
	n := &Node[int]{Value: 1}
	l.PushFrontNode(n)
	wantOrder(t, l, []int{1, 2})
}

func TestPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	l1 := New[int]()
	l2 := New[int]()
	n := l1.PushBack(1)
	mustPanic("Remove foreign", func() { l2.Remove(n) })
	mustPanic("MoveToBack foreign", func() { l2.MoveToBack(n) })
	mustPanic("MoveToFront foreign", func() { l2.MoveToFront(n) })
	mustPanic("double insert", func() { l2.PushBackNode(n) })
	mustPanic("double insert front", func() { l2.PushFrontNode(n) })
	m := l2.PushBack(9)
	mustPanic("MoveAfter foreign mark", func() { l1.MoveAfter(n, m) })
	mustPanic("MoveAfter foreign node", func() { l1.MoveAfter(m, n) })
}

// TestRandomizedAgainstSlice cross-checks the list against a plain slice
// model under a random operation mix.
func TestRandomizedAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := New[int]()
	var model []int
	var nodes []*Node[int]

	removeAt := func(i int) {
		l.Remove(nodes[i])
		nodes = append(nodes[:i], nodes[i+1:]...)
		model = append(model[:i], model[i+1:]...)
	}

	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // push back
			v := rng.Intn(1000)
			nodes = append(nodes, l.PushBack(v))
			model = append(model, v)
		case r < 6: // push front
			v := rng.Intn(1000)
			nodes = append([]*Node[int]{l.PushFront(v)}, nodes...)
			model = append([]int{v}, model...)
		case r < 8 && len(nodes) > 0: // remove random
			removeAt(rng.Intn(len(nodes)))
		case r < 9 && len(nodes) > 0: // move to back
			i := rng.Intn(len(nodes))
			n, v := nodes[i], model[i]
			l.MoveToBack(n)
			nodes = append(append(nodes[:i], nodes[i+1:]...), n)
			model = append(append(model[:i], model[i+1:]...), v)
		case len(nodes) > 0: // move to front
			i := rng.Intn(len(nodes))
			n, v := nodes[i], model[i]
			l.MoveToFront(n)
			nodes = append([]*Node[int]{n}, append(nodes[:i], nodes[i+1:]...)...)
			model = append([]int{v}, append(model[:i], model[i+1:]...)...)
		}
	}
	got := collect(l)
	if len(got) != len(model) {
		t.Fatalf("len mismatch: got %d want %d", len(got), len(model))
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], model[i])
		}
	}
}
