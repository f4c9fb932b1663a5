package core

import (
	"math"
	"slices"

	"camp/internal/cache"
)

// corruption breaks one structure CheckInvariants guards, and names the
// error that branch must report.
type corruption[P any] struct {
	name    string
	corrupt func(P)
	want    string
}

// campFixture is a CAMP policy holding three entries in one queue (cost 1,
// size 10) and one in a second (cost 100), nothing evicted.
func campFixture() *Camp {
	c := NewCamp(1000)
	for _, k := range []string{"a", "b", "c"} {
		c.Set(k, 10, 1)
	}
	c.Set("d", 10, 100)
	return c
}

// campQueues returns c's queues, the three-entry one first.
func campQueues(c *Camp) []*campQueue {
	qs := make([]*campQueue, 0, len(c.queues))
	for _, q := range c.queues {
		qs = append(qs, q)
	}
	slices.SortFunc(qs, func(a, b *campQueue) int { return b.Len() - a.Len() })
	return qs
}

// campCorruptions has one entry per Camp.CheckInvariants failure branch.
var campCorruptions = []corruption[*Camp]{
	{"heap-vs-map", func(c *Camp) { delete(c.queues, campQueues(c)[1].bucket) }, "heap has 2 queues, map has 1"},
	{"bucket", func(c *Camp) { campQueues(c)[0].bucket++ }, "has bucket"},
	{"empty", func(c *Camp) {
		q := campQueues(c)[1]
		q.Remove(q.Front())
	}, "is empty but registered"},
	{"heap-index", func(c *Camp) { campQueues(c)[0].heapIdx = 7 }, "heapIdx 7 is stale"},
	{"back-link", func(c *Camp) {
		// Linking the middle entry into another queue rewrites its links
		// but not its old neighbours'.
		var other cache.Queue
		other.PushBack(campQueues(c)[0].Front().Next())
	}, "back link is broken"},
	{"entry-bucket", func(c *Camp) { campQueues(c)[0].Back().Aux++ }, "in queue"},
	{"order", func(c *Camp) {
		first := campQueues(c)[0].Front()
		first.Seq = first.Next().Seq + 1
	}, "not in priority order"},
	{"below-L", func(c *Camp) { c.l = 1 << 40 }, "below L"},
	{"above-L", func(c *Camp) { campQueues(c)[0].Back().H += 1 << 40 }, "above L+ratio"},
	{"linked-count", func(c *Camp) {
		// A node spliced after the tail through another queue is linked
		// both ways, but the queue never counted it.
		q := campQueues(c)[0]
		tail := q.Back()
		extra := &cache.Node{H: tail.H, Seq: tail.Seq + 1, Aux: tail.Aux}
		var other cache.Queue
		other.PushBack(extra)
		other.MoveAfter(extra, tail)
	}, "links 4 entries front to back, its length is 3"},
	{"len", func(c *Camp) { c.n++ }, "queues hold 4 entries, Len is 5"},
	{"bytes", func(c *Camp) { c.used++ }, "accounted 40 bytes, used=41"},
	{"capacity", func(c *Camp) { c.capacity = 39 }, "used 40 exceeds capacity 39"},
	{"heap-order", func(c *Camp) {
		items := c.heap.Items()
		items[0], items[1] = items[1], items[0]
		items[0].heapIdx, items[1].heapIdx = 0, 1
	}, "queue heap invariant violated"},
	{"index", func(c *Camp) { c.Remove(campQueues(c)[1].Front()) }, "ordering holds 3 entries, index 4"},
}

// gdsFixture is a GDS policy holding three entries of distinct priority.
func gdsFixture() *GDS {
	g := NewGDS(1000)
	g.Set("a", 10, 1)
	g.Set("b", 10, 50)
	g.Set("c", 10, 100)
	return g
}

// gdsCorruptions has one entry per GDS.CheckInvariants failure branch.
var gdsCorruptions = []corruption[*GDS]{
	{"heap-slot", func(g *GDS) { g.heap.Items()[1].Aux = 7 }, "heap slot 7 is stale"},
	{"below-L", func(g *GDS) { g.l = 1e9 }, "below L"},
	{"above-L", func(g *GDS) {
		n := g.heap.Items()[2]
		n.H = math.Float64bits(gdsH(n) + 1e9)
	}, "above L+ratio"},
	{"bytes", func(g *GDS) { g.used++ }, "accounted 30 bytes, used=31"},
	{"capacity", func(g *GDS) { g.capacity = 29 }, "used 30 exceeds capacity 29"},
	{"heap-order", func(g *GDS) {
		items := g.heap.Items()
		items[0], items[1] = items[1], items[0]
		items[0].Aux, items[1].Aux = 0, 1
	}, "heap invariant violated"},
	{"index", func(g *GDS) { g.Remove(g.heap.Items()[0]) }, "ordering holds 2 entries, index 3"},
}
