package bench

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span names. The driver's spans nest batch → {driver.encode, socket.write,
// driver.verify → socket.wait_read}; the in-process layer replays record one
// span per chunk of calls under their layer's name.
const (
	spanBatch    = "batch"
	spanEncode   = "driver.encode"
	spanWrite    = "socket.write"
	spanVerify   = "driver.verify"
	spanWaitRead = "socket.wait_read"
)

// Span is one timed interval as written to the trace file: what, caused by
// which span, for which batch.
type Span struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"` // 0 = root
	Batch   uint32 `json:"batch"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder's origin
	EndNs   int64  `json:"end_ns"`
}

// span is a Span in memory: pointer-free, so a million of them cost the
// garbage collector nothing; its id is its index plus one.
type span struct {
	parent, batch uint32
	name          uint32
	start, end    int64
}

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	mu     sync.Mutex
	origin time.Time
	names  []string
	spans  []span
}

// NewRecorder starts a recorder whose times count from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Add records a span and returns its id.
func (r *Recorder) Add(name string, parent, batch uint32, start, end time.Time) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for n < len(r.names) && r.names[n] != name {
		n++
	}
	if n == len(r.names) {
		r.names = append(r.names, name)
	}
	r.spans = append(r.spans, span{
		parent: parent, batch: batch, name: uint32(n),
		start: int64(start.Sub(r.origin)), end: int64(end.Sub(r.origin)),
	})
	return uint32(len(r.spans))
}

// End sets the end of a span recorded while it was still open.
func (r *Recorder) End(id uint32, end time.Time) {
	r.mu.Lock()
	r.spans[id-1].end = int64(end.Sub(r.origin))
	r.mu.Unlock()
}

// SpanSummary is one span name's totals. Self time is the span's duration
// minus the part its children cover.
type SpanSummary struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// Summary totals the spans by name.
func (r *Recorder) Summary() map[string]SpanSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.parent] += s.end - s.start
	}
	out := make(map[string]SpanSummary)
	for i, s := range r.spans {
		sum := out[r.names[s.name]]
		sum.Count++
		sum.TotalNs += s.end - s.start
		sum.SelfNs += s.end - s.start - children[i+1]
		out[r.names[s.name]] = sum
	}
	return out
}

// maxSpansWritten bounds the trace file: a closed loop records over a
// million spans, and the first tens of thousands show the shape of a batch
// as well as all of them; the summary covers every span.
const maxSpansWritten = 50_000

// WriteFile writes the summary, any extra sections, and the first spans as
// JSON.
func (r *Recorder) WriteFile(path string, extra map[string]any) error {
	doc := map[string]any{"summary": r.Summary()}
	for k, v := range extra {
		doc[k] = v
	}
	r.mu.Lock()
	doc["spans_recorded"] = len(r.spans)
	spans := make([]Span, min(len(r.spans), maxSpansWritten))
	for i := range spans {
		s := r.spans[i]
		spans[i] = Span{ID: uint32(i + 1), Parent: s.parent, Batch: s.batch, Name: r.names[s.name], StartNs: s.start, EndNs: s.end}
	}
	r.mu.Unlock()
	doc["spans"] = spans
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
