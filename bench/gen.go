package bench

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"

	"camp/internal/trace"
)

// valueWord is the 8-byte pattern a value of n bytes stored under key
// repeats: a hash of the key mixed with the length, so a reply can be
// verified from its own bytes with no table of what was sent.
func valueWord[K string | []byte](key K, n int) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h ^= uint64(n) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// FillValue writes key's self-describing value over dst.
func FillValue(dst []byte, key string) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], valueWord(key, len(dst)))
	for n := copy(dst, w[:]); n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// CheckValue reports whether value is what FillValue wrote for key.
func CheckValue(key, value []byte) bool {
	w := valueWord(key, len(value))
	for len(value) >= 8 {
		if binary.LittleEndian.Uint64(value) != w {
			return false
		}
		value = value[8:]
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], w)
	return string(value) == string(tail[:len(value)])
}

// AppendSet encodes "set <key> 0 0 <bytes> <cost> [noreply]" and its value.
func (ks *Keyspace) AppendSet(dst []byte, idx int32, noreply bool) []byte {
	key, n := ks.Keys[idx], int(ks.Sizes[idx])
	dst = append(dst, "set "...)
	dst = append(dst, key...)
	dst = append(dst, " 0 0 "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, ks.Costs[idx], 10)
	if noreply {
		dst = append(dst, " noreply"...)
	}
	dst = append(dst, '\r', '\n')
	at := len(dst)
	dst = slices.Grow(dst, n+2)[:at+n]
	FillValue(dst[at:], key)
	return append(dst, '\r', '\n')
}

// AppendGet encodes one multiget line.
func (ks *Keyspace) AppendGet(dst []byte, idxs []int32) []byte {
	dst = append(dst, "get"...)
	for _, i := range idxs {
		dst = append(dst, ' ')
		dst = append(dst, ks.Keys[i]...)
	}
	return append(dst, '\r', '\n')
}

// Batch is one pipelined group a connection waits for: the unit the
// closed loop counts and p99_us times.
type Batch struct {
	Sets   []int32 // keys set by the frame, in order
	Stored int     // STORED lines the server will send before the get reply
	Keys   []int32 // the multiget's keys, in request order
}

// Ops is the number of individual operations in the batch.
func (b Batch) Ops() int { return len(b.Sets) + len(b.Keys) }

// Source yields a connection's batches. The frame Next returns is valid
// until the following Next; Done is called once the reply is verified, and
// hit[i] says whether Keys[i] was returned.
type Source interface {
	Next() (frame []byte, b Batch)
	Done(b Batch, hit []bool)
}

// Stream is a connection's whole generated request stream: it hands the
// driver a Source positioned at the start, and the layer replays the same
// first n operations, as operations or as wire bytes.
type Stream interface {
	Rewound() Source
	Ops(n int) []Op
	Frames(n int) []byte
}

// Mix is the source of the three fixed-shape workloads: every
// batch is Sets sets then one multiget of GetKeys keys, the keys drawn from
// the workload's popularity distribution. Frames are encoded on demand into
// one reused buffer — an append of prebuilt key strings and a doubling copy
// of an 8-byte pattern, a few hundred nanoseconds a batch — so the driver
// holds no large pre-encoded buffer whose first touch a phase would pay.
type Mix struct {
	sp    Spec
	ks    *Keyspace
	seed  int64
	conn  int
	rng   *rand.Rand
	dist  trace.KeyDist
	frame []byte
}

// NewMix returns connection conn's stream; the same (spec, keyspace, seed,
// conn) always yields the same bytes.
func NewMix(sp Spec, ks *Keyspace, seed int64, conn int) *Mix {
	return &Mix{
		sp: sp, ks: ks, seed: seed, conn: conn,
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(conn) + 1)),
		dist: sp.dist(),
	}
}

// Next implements Source.
func (m *Mix) Next() ([]byte, Batch) {
	idxs := make([]int32, m.sp.Sets+m.sp.GetKeys) // outlives the call: the reply is checked against it
	for i := range idxs {
		idxs[i] = int32(m.dist.SampleKey(m.rng))
	}
	b := Batch{Sets: idxs[:m.sp.Sets], Keys: idxs[m.sp.Sets:]}
	if !m.sp.Noreply {
		b.Stored = m.sp.Sets
	}
	m.frame = m.frame[:0]
	for _, k := range b.Sets {
		m.frame = m.ks.AppendSet(m.frame, k, m.sp.Noreply)
	}
	m.frame = m.ks.AppendGet(m.frame, b.Keys)
	return m.frame, b
}

// Done implements Source.
func (m *Mix) Done(Batch, []bool) {}

// Rewound implements Stream.
func (m *Mix) Rewound() Source { return NewMix(m.sp, m.ks, m.seed, m.conn) }

// Ops implements Stream.
func (m *Mix) Ops(n int) []Op {
	var ops []Op
	for g := NewMix(m.sp, m.ks, m.seed, m.conn); len(ops) < n; {
		_, b := g.Next()
		for _, k := range b.Sets {
			ops = append(ops, Op{Key: k, Set: true})
		}
		for _, k := range b.Keys {
			ops = append(ops, Op{Key: k})
		}
	}
	return ops[:n]
}

// Frames implements Stream: the wire bytes of the batches covering the
// first n operations.
func (m *Mix) Frames(n int) []byte {
	var out []byte
	for g := NewMix(m.sp, m.ks, m.seed, m.conn); n > 0; {
		frame, b := g.Next()
		out = append(out, frame...)
		n -= b.Ops()
	}
	return out
}

// Op is one request of a workload's stream as the layer replays see it.
type Op struct {
	Key int32
	Set bool
}

// Replay is evict_bg's source: multigets over a BG-trace key stream, each
// followed — in the next frame — by a noreply set with its cost for every
// key that missed.
type Replay struct {
	ks      *Keyspace
	stream  []int32
	getKeys int
	pos     int
	pending []int32 // missed keys whose set rides the next frame
	frame   []byte
}

// NewReplay draws the hotspot key stream: n requests, deterministic in seed.
func NewReplay(sp Spec, ks *Keyspace, seed int64, n int) *Replay {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 1))
	dist := sp.dist()
	stream := make([]int32, n)
	for i := range stream {
		stream[i] = int32(dist.SampleKey(rng))
	}
	return &Replay{ks: ks, stream: stream, getKeys: sp.GetKeys}
}

// Next implements Source. The stream wraps if a time-bound phase outlasts it.
func (r *Replay) Next() ([]byte, Batch) {
	if r.pos+r.getKeys > len(r.stream) {
		r.pos = 0
	}
	keys := r.stream[r.pos : r.pos+r.getKeys]
	r.pos += r.getKeys
	sets := r.pending
	r.pending = nil
	r.frame = r.frame[:0]
	for _, k := range sets {
		r.frame = r.ks.AppendSet(r.frame, k, true)
	}
	r.frame = r.ks.AppendGet(r.frame, keys)
	return r.frame, Batch{Sets: sets, Keys: keys}
}

// Done implements Source.
func (r *Replay) Done(b Batch, hit []bool) {
	for i, k := range b.Keys {
		if !hit[i] {
			r.pending = append(r.pending, k)
		}
	}
}

// Rewound implements Stream.
func (r *Replay) Rewound() Source { return &Replay{ks: r.ks, stream: r.stream, getKeys: r.getKeys} }

// Ops returns the first n requests; the layer replays treat a get that
// misses as a get followed by a set, as the driver does.
func (r *Replay) Ops(n int) []Op {
	if n > len(r.stream) {
		n = len(r.stream)
	}
	ops := make([]Op, n)
	for i := range ops {
		ops[i].Key = r.stream[i]
	}
	return ops
}

// Frames returns the multiget lines covering the first n requests.
func (r *Replay) Frames(n int) []byte {
	var out []byte
	for at := 0; at+r.getKeys <= n && at+r.getKeys <= len(r.stream); at += r.getKeys {
		out = r.ks.AppendGet(out, r.stream[at:at+r.getKeys])
	}
	return out
}
