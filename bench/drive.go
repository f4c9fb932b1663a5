package bench

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Tally counts what one connection attempted and what failed, and keeps the
// paper's §3 sums over warm requests (cold, first-reference requests are
// excluded).
type Tally struct {
	Attempted, Failed  int64
	WarmReq, WarmMiss  int64
	WarmCost, MissCost int64
	SetBytes           int64 // value bytes sent in sets
	Err                error // first failure, for the report
}

// sub returns the counts accumulated since o was copied from t.
func (t Tally) sub(o Tally) Tally {
	return Tally{
		Attempted: t.Attempted - o.Attempted, Failed: t.Failed - o.Failed,
		WarmReq: t.WarmReq - o.WarmReq, WarmMiss: t.WarmMiss - o.WarmMiss,
		WarmCost: t.WarmCost - o.WarmCost, MissCost: t.MissCost - o.MissCost,
		SetBytes: t.SetBytes - o.SetBytes, Err: t.Err,
	}
}

func (t *Tally) add(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.WarmReq += o.WarmReq
	t.WarmMiss += o.WarmMiss
	t.WarmCost += o.WarmCost
	t.MissCost += o.MissCost
	t.SetBytes += o.SetBytes
	if t.Err == nil {
		t.Err = o.Err
	}
}

func (t *Tally) fail(n int, err error) {
	t.Failed += int64(n)
	if t.Err == nil {
		t.Err = err
	}
}

// driver is one connection with its batch source and counters.
type driver struct {
	*Conn
	ks      *Keyspace
	src     Source
	evicts  bool   // a miss is legitimate (evict_bg); elsewhere it is a failure
	seen    []bool // evict_bg: keys referenced so far; nil = every key is warm (preloaded)
	tally   Tally
	samples []Sample
	rec     *Recorder // traced run only
	id      int

	hit   []bool
	reads [][2]time.Time
	dead  bool // the reply stream is lost; nothing more is sent
}

func newDriver(c *Conn, ks *Keyspace, src Source, id int, evicts bool) *driver {
	d := &driver{Conn: c, ks: ks, src: src, id: id, evicts: evicts}
	if evicts {
		d.seen = make([]bool, len(ks.Keys))
	}
	return d
}

// receive reads and verifies the reply to b. It returns an error only when
// the stream can no longer be trusted; refusals and bad values are counted
// and the connection carries on.
func (d *driver) receive(b Batch) error {
	for i := 0; i < b.Stored; i++ {
		switch err := d.Stored(); {
		case err == nil:
		case errors.Is(err, ErrRefused), errors.Is(err, ErrNotStored):
			d.tally.fail(1, err)
		default:
			return err
		}
	}
	if cap(d.hit) < len(b.Keys) {
		d.hit = make([]bool, len(b.Keys))
	}
	hit := d.hit[:len(b.Keys)]
	clear(hit)
	next := 0 // replies come in request order
	err := d.Values(func(key, value []byte) error {
		for next < len(b.Keys) && d.ks.Keys[b.Keys[next]] != string(key) {
			next++
		}
		if next == len(b.Keys) {
			return fmt.Errorf("%w: VALUE for unrequested key %q", ErrProtocol, key)
		}
		hit[next] = true
		next++
		if !CheckValue(key, value) {
			d.tally.fail(1, fmt.Errorf("%w: key %s, %d bytes", ErrMismatch, key, len(value)))
		}
		return nil
	})
	if errors.Is(err, ErrRefused) {
		d.tally.fail(len(b.Keys), err)
		err = nil
	}
	if err != nil {
		return err
	}
	for i, k := range b.Keys {
		warm := d.seen == nil || d.seen[k]
		if d.seen != nil {
			d.seen[k] = true
		}
		if warm {
			d.tally.WarmReq++
			d.tally.WarmCost += d.ks.Costs[k]
			if !hit[i] {
				d.tally.WarmMiss++
				d.tally.MissCost += d.ks.Costs[k]
			}
		}
		if !hit[i] && !d.evicts {
			d.tally.fail(1, fmt.Errorf("miss on resident key %s", d.ks.Keys[k]))
		}
	}
	d.src.Done(b, hit)
	return nil
}

// sending counts a batch as attempted.
func (d *driver) sending(b Batch) {
	d.tally.Attempted += int64(b.Ops())
	for _, k := range b.Sets {
		d.tally.SetBytes += int64(d.ks.Sizes[k])
	}
}

// lost records a broken reply stream: the batch's operations failed and
// the connection sends nothing more.
func (d *driver) lost(b Batch, err error) {
	d.tally.fail(b.Ops(), err)
	d.dead = true
}

// closedLoop keeps depth batches in flight: it sends the next batch when
// the oldest reply completes, until the deadline passes or, when batches >
// 0, exactly that many were sent.
func (d *driver) closedLoop(start time.Time, dur time.Duration, batches, depth int) {
	if d.rec != nil {
		d.OnRead = func(s, e time.Time) { d.reads = append(d.reads, [2]time.Time{s, e}) }
		defer func() { d.OnRead = nil }()
	}
	type sentBatch struct {
		b    Batch
		n    int
		t0   time.Time
		root uint32
	}
	var (
		queue = make([]sentBatch, depth)
		head  int // oldest in flight
		fly   int
		sent  int
		done  bool
	)
	for !d.dead {
		for ; fly < depth && !done; fly++ {
			t0 := time.Now()
			if done = batches > 0 && sent == batches || batches == 0 && t0.Sub(start) >= dur; done {
				break
			}
			frame, b := d.src.Next()
			d.sending(b)
			t1 := time.Now()
			_ = d.SetDeadline(t1.Add(opTimeout))
			if _, err := d.Write(frame); err != nil {
				d.lost(b, err)
				return
			}
			sb := sentBatch{b: b, n: sent, t0: t0}
			if d.rec != nil {
				id := uint32(sent)<<1 | uint32(d.id)
				sb.root = d.rec.Add(spanBatch, 0, id, t0, t0) // end set on completion
				d.rec.Add(spanEncode, sb.root, id, t0, t1)
				d.rec.Add(spanWrite, sb.root, id, t1, time.Now())
			}
			queue[(head+fly)%depth] = sb
			sent++
		}
		if fly == 0 {
			return
		}
		sb := queue[head]
		head, fly = (head+1)%depth, fly-1
		t2 := time.Now()
		err := d.receive(sb.b)
		t3 := time.Now()
		if err != nil {
			d.lost(sb.b, err)
			for ; fly > 0; head, fly = (head+1)%depth, fly-1 {
				d.tally.fail(queue[head].b.Ops(), err)
			}
			return
		}
		d.samples = append(d.samples, Sample{At: t3.Sub(start), Lat: t3.Sub(sb.t0), Ops: sb.b.Ops()})
		if d.rec != nil {
			id := uint32(sb.n)<<1 | uint32(d.id)
			d.rec.End(sb.root, t3)
			verify := d.rec.Add(spanVerify, sb.root, id, t2, t3)
			for _, r := range d.reads {
				d.rec.Add(spanWaitRead, verify, id, r[0], r[1])
			}
			d.reads = d.reads[:0]
		}
	}
}

// maxInflight bounds the open loop's unanswered batches per connection;
// past it the generator stops sending and its lateness shows the backlog.
const maxInflight = 4096

type inflight struct {
	b         Batch
	due, sent time.Time
}

// pollReader reads a socket without ever parking in the Go netpoller: when
// nothing is there it runs idle (which sends whatever is due) and yields.
// time.Sleep resolves to about a millisecond on Linux and a parked reader
// wakes tens of microseconds late, so the open loop — which must send on
// schedule and timestamp completions exactly — busy-polls instead.
type pollReader struct {
	rc   syscall.RawConn
	idle func(now time.Time)
	buf  []byte
	n    int
	err  error
	try  func(fd uintptr) bool
}

func newPollReader(c net.Conn, idle func(time.Time)) (*pollReader, error) {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("%T has no raw descriptor", c)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	p := &pollReader{rc: rc, idle: idle}
	p.try = func(fd uintptr) bool {
		p.n, p.err = syscall.Read(int(fd), p.buf)
		return true // never wait for readiness
	}
	return p, nil
}

func (p *pollReader) Read(buf []byte) (int, error) {
	p.buf = buf
	for waited := time.Now(); ; {
		if err := p.rc.Read(p.try); err != nil {
			return 0, err
		}
		switch {
		case p.n > 0:
			return p.n, nil
		case p.err == nil:
			return 0, errors.New("connection closed by server")
		case p.err != syscall.EAGAIN && p.err != syscall.EINTR:
			return 0, p.err
		}
		now := time.Now()
		if now.Sub(waited) > opTimeout {
			return 0, os.ErrDeadlineExceeded
		}
		p.idle(now)
		runtime.Gosched()
	}
}

// openLoop sends one batch every interval from start (this connection's
// first due time) until end, whatever the replies do, and times each batch
// from the moment it was due.
func (d *driver) openLoop(origin, start, end time.Time, interval time.Duration) error {
	var (
		queue   []inflight
		head    int
		nextDue = start
	)
	pump := func(now time.Time) {
		for !d.dead && !now.Before(nextDue) && nextDue.Before(end) && len(queue)-head < maxInflight {
			frame, b := d.src.Next()
			d.sending(b)
			sent := time.Now()
			if _, err := d.Write(frame); err != nil {
				d.lost(b, err)
				return
			}
			queue = append(queue, inflight{b: b, due: nextDue, sent: sent})
			nextDue = nextDue.Add(interval)
			now = time.Now()
		}
	}
	pr, err := newPollReader(d.Conn.Conn, pump)
	if err != nil {
		return err
	}
	_ = d.SetDeadline(time.Time{})
	blocking := d.rd
	d.rd = pr
	defer func() { d.rd = blocking }()
	for {
		now := time.Now()
		pump(now)
		if head == len(queue) {
			if d.dead || !nextDue.Before(end) {
				return nil
			}
			runtime.Gosched()
			continue
		}
		f := queue[head]
		queue[head] = inflight{}
		if head++; head == len(queue) {
			queue, head = queue[:0], 0
		}
		if d.dead {
			d.tally.fail(f.b.Ops(), d.tally.Err)
			continue
		}
		if err := d.receive(f.b); err != nil {
			d.lost(f.b, err)
			continue
		}
		done := time.Now()
		d.samples = append(d.samples, Sample{
			At: done.Sub(origin), Lat: done.Sub(f.due), Late: f.sent.Sub(f.due), Ops: f.b.Ops(),
		})
	}
}

// each runs fn on every driver concurrently and waits for all.
func each(ds []*driver, fn func(*driver)) {
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(d)
		}()
	}
	wg.Wait()
}

// preloadChunk is how many bytes of noreply sets are written per call
// while preloading.
const preloadChunk = 256 << 10

// preload stores keys[from:to) with pipelined noreply sets; the last set
// asks for its reply, which acknowledges the whole stream.
func preload(c *Conn, ks *Keyspace, from, to int) error {
	_ = c.SetDeadline(time.Now().Add(60 * time.Second))
	var buf []byte
	for i := from; i < to; i++ {
		buf = ks.AppendSet(buf, int32(i), i != to-1)
		if len(buf) >= preloadChunk || i == to-1 {
			if _, err := c.Write(buf); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			buf = buf[:0]
		}
	}
	if to > from {
		if err := c.Stored(); err != nil {
			return fmt.Errorf("preload: last set: %w", err)
		}
	}
	return nil
}

// readBack fetches keys[from:to) in multigets of 100 and reports how many
// came back intact.
func readBack(c *Conn, ks *Keyspace, from, to int) (found int, err error) {
	_ = c.SetDeadline(time.Now().Add(60 * time.Second))
	var (
		buf  []byte
		idxs []int32
	)
	for at := from; at < to; at += 100 {
		idxs = idxs[:0]
		for i := at; i < at+100 && i < to; i++ {
			idxs = append(idxs, int32(i))
		}
		buf = ks.AppendGet(buf[:0], idxs)
		if _, err := c.Write(buf); err != nil {
			return found, err
		}
		err := c.Values(func(key, value []byte) error {
			if CheckValue(key, value) {
				found++
			}
			return nil
		})
		if err != nil {
			return found, err
		}
	}
	return found, nil
}
