package cache

// Admission gates inserts into an inner policy with a frequency sketch,
// prototyping the §6 future-work direction: "admission control policies in
// conjunction with CAMP ... should enhance the performance of CAMP by not
// inserting unpopular key-value pairs that are evicted before their next
// request."
//
// Every Get (hit or miss) bumps the key's estimated frequency in a small
// count-min sketch with periodic halving (TinyLFU-style aging). A brand-new
// key is admitted only when the cache has free room or the key has been
// seen at least MinFrequency times; updates to resident keys always pass
// through. One-hit wonders therefore never displace resident items.
//
// Admission keeps no index: it is its inner policy, whose Get and Set it
// shadows — an ordering never sees a miss, so the sketch must sit in front of
// the keyed face. Everything else, the Ordering included, is the inner
// policy's; a snapshot replay through SetWithPriority is not filtered.
type Admission struct {
	KeyedOrdering
	sketch   *freqSketch
	minHits  uint8
	rejected uint64
}

var _ KeyedOrdering = (*Admission)(nil)

// AdmissionOption configures NewAdmission.
type AdmissionOption func(*Admission)

// WithMinFrequency sets the admission threshold (default 2: a key must be
// requested at least twice before it may displace resident data).
func WithMinFrequency(n uint8) AdmissionOption {
	return func(a *Admission) { a.minHits = max(n, 1) }
}

// NewAdmission wraps inner with a frequency-based admission filter.
func NewAdmission(inner KeyedOrdering, opts ...AdmissionOption) *Admission {
	a := &Admission{
		KeyedOrdering: inner,
		sketch:        newFreqSketch(1 << 14),
		minHits:       2,
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Name implements Policy.
func (a *Admission) Name() string { return a.KeyedOrdering.Name() + "+admit" }

// Get implements Policy.
func (a *Admission) Get(key string) bool {
	a.sketch.bump(key)
	return a.KeyedOrdering.Get(key)
}

// Set implements Policy.
func (a *Admission) Set(key string, size, cost int64) bool {
	if !a.Contains(key) && a.Used()+size > a.Capacity() && a.sketch.estimate(key) < a.minHits {
		a.rejected++
		return false
	}
	return a.KeyedOrdering.Set(key, size, cost)
}

// Stats implements Policy: the inner policy's counters plus this filter's
// rejections.
func (a *Admission) Stats() Stats {
	st := a.KeyedOrdering.Stats()
	st.Rejected += a.rejected
	return st
}

// freqSketch is a 4-row count-min sketch of 4-bit counters with periodic
// halving, sized for ~width distinct hot keys. Each key is hashed once, with
// a fixed function, and its rows are picked by double hashing: the same
// stream of keys always yields the same counts, so every admission decision
// repeats from run to run.
type freqSketch struct {
	rows  [4][]uint8
	mask  uint64
	ops   int
	reset int
}

func newFreqSketch(width int) *freqSketch {
	if width&(width-1) != 0 {
		panic("cache: sketch width must be a power of two")
	}
	s := &freqSketch{mask: uint64(width - 1), reset: width * 8}
	for i := range s.rows {
		s.rows[i] = make([]uint8, width)
	}
	return s
}

// fnv1a is the 64-bit FNV-1a hash of key.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// counter returns row i's counter for a key hashed to h: the row index is
// h1 + i·h2, the halves of h with h2 odd.
func (s *freqSketch) counter(i int, h uint64) *uint8 {
	h1, h2 := h&0xffffffff, h>>32|1
	return &s.rows[i][(h1+uint64(i)*h2)&s.mask]
}

func (s *freqSketch) bump(key string) {
	h := fnv1a(key)
	for i := range s.rows {
		if c := s.counter(i, h); *c < 15 {
			*c++
		}
	}
	s.ops++
	if s.ops >= s.reset {
		s.halve()
		s.ops = 0
	}
}

func (s *freqSketch) estimate(key string) uint8 {
	h := fnv1a(key)
	est := uint8(255)
	for i := range s.rows {
		est = min(est, *s.counter(i, h))
	}
	return est
}

// halve ages every counter so stale popularity decays.
func (s *freqSketch) halve() {
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] >>= 1
		}
	}
}
