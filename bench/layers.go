package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"camp"
	"camp/internal/alloc"
	"camp/internal/cache"
	"camp/internal/core"
	"camp/internal/kvclient"
	"camp/internal/persist"
	"camp/internal/proto"
)

// layerChunk is how many calls one layer span covers. Reading the clock
// costs about as much as the calls being timed, so a span per call would
// measure the clock; a layer's ns figure is the median over chunks of
// chunk time ÷ calls, which also shrugs off a preempted chunk.
const layerChunk = 1024

// layers replays one workload's request stream through each layer's
// exported functions in this process, next to a baseline twin where the
// layer has one. Every *_ns result is nanoseconds per operation of the
// stream unless its name says otherwise.
type layers struct {
	sp     Spec
	ks     *Keyspace
	ops    []Op
	frames []byte
	rec    *Recorder
	dir    string
	values [][]byte // one self-describing value per key, built once
	out    map[string]float64
}

// timeChunks calls fn(i) for i in [0,n) and returns the median ns per call
// over chunks, recording one span per chunk.
func (l *layers) timeChunks(name string, n int, fn func(i int)) float64 {
	var per []float64
	for at := 0; at < n; at += layerChunk {
		end := min(at+layerChunk, n)
		start := time.Now()
		for i := at; i < end; i++ {
			fn(i)
		}
		stop := time.Now()
		l.rec.Add(name, 0, uint32(at/layerChunk), start, stop)
		per = append(per, float64(stop.Sub(start))/float64(end-at))
	}
	return Median(per)
}

func runLayers(sp Spec, ks *Keyspace, st Stream, n int, rec *Recorder, dir string) (map[string]float64, error) {
	l := &layers{sp: sp, ks: ks, ops: st.Ops(n), frames: st.Frames(n), rec: rec, dir: dir, out: make(map[string]float64)}
	l.values = make([][]byte, len(ks.Keys))
	for i, k := range ks.Keys {
		l.values[i] = make([]byte, ks.Sizes[i])
		FillValue(l.values[i], k)
	}
	for _, step := range []func() error{l.proto, l.core, l.arena, l.persist, l.kvclient, l.camp} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// proto: LineReader.ReadLine + Tokenize + ParseUint over the very request
// bytes the driver sends, skipping value blocks as the server's reader does.
func (l *layers) proto() error {
	br := bufio.NewReaderSize(bytes.NewReader(l.frames), 64<<10)
	lr := proto.NewLineReader(br)
	var toks [][]byte
	lines := 0
	start := time.Now()
	for {
		ln, err := lr.ReadLine()
		if err != nil {
			break
		}
		toks = proto.Tokenize(ln, toks[:0])
		lines++
		if len(toks) >= 5 && string(toks[0]) == "set" {
			proto.ParseUint(toks[2])
			proto.ParseUint(toks[3])
			n, ok := proto.ParseUint(toks[4])
			if !ok {
				return fmt.Errorf("proto replay: bad set line %q", ln)
			}
			if _, err := br.Discard(int(n) + 2); err != nil {
				return err
			}
		}
	}
	stop := time.Now()
	l.rec.Add("proto.parse", 0, 0, start, stop)
	if lines == 0 {
		return fmt.Errorf("proto replay parsed no line")
	}
	l.out["proto.parse_ns"] = float64(stop.Sub(start)) / float64(len(l.ops))
	return nil
}

// policy replays the stream on a metadata-only policy: a set sets, a get
// gets and — as the driver does — sets on a miss. All but the replay workload
// start from the preloaded population.
func (l *layers) policy(name string, p cache.Policy) float64 {
	if !l.sp.Replay {
		for i, k := range l.ks.Keys {
			p.Set(k, int64(l.ks.Sizes[i]), l.ks.Costs[i])
		}
	}
	return l.timeChunks(name, len(l.ops), func(i int) {
		op := l.ops[i]
		k := l.ks.Keys[op.Key]
		if op.Set || !p.Get(k) {
			p.Set(k, int64(l.ks.Sizes[op.Key]), l.ks.Costs[op.Key])
		}
	})
}

func (l *layers) core() error {
	c := core.NewCamp(l.sp.MemBytes, core.WithPrecision(5))
	h0 := c.HeapUpdates()
	l.out["core.policy_ns"] = l.policy("core.policy", c)
	l.out["core.heap_updates_per_op"] = float64(c.HeapUpdates()-h0) / float64(len(l.ops))
	l.out["core.evictions"] = float64(c.Stats().Evictions)
	l.out["core.lru_ns"] = l.policy("core.lru", cache.NewLRU(l.sp.MemBytes))
	return nil
}

// keyIndex recovers a key's index from its name ("k123").
func keyIndex(key []byte) int {
	n, _ := proto.ParseUint(key[1:])
	return int(n)
}

// arena: Append + Release of the overwritten record + the bounded
// CompactStep kvserver donates per mutation, and Value on a get; twin:
// make([]byte) + copy into a slice table.
func (l *layers) arena() error {
	a, err := alloc.NewArena(l.sp.MemBytes, 0)
	if err != nil {
		return err
	}
	refs := make([]alloc.Ref, len(l.ks.Keys))
	have := make([]bool, len(l.ks.Keys))
	alive := func(key []byte, ref alloc.Ref) bool { i := keyIndex(key); return have[i] && refs[i] == ref }
	moved := func(key []byte, ref alloc.Ref) { refs[keyIndex(key)] = ref }
	var sink int
	set := func(k int32) {
		ref, err := a.Append(l.ks.Keys[k], l.values[k], 0, 0)
		for err != nil && a.CompactForce(alive, moved) {
			ref, err = a.Append(l.ks.Keys[k], l.values[k], 0, 0)
		}
		if err != nil {
			return // full: byte workloads at evict_bg's capacity; the get path then misses
		}
		if have[k] {
			a.Release(refs[k])
		}
		refs[k], have[k] = ref, true
		if a.NeedsCompaction() {
			a.CompactStep(32<<10, alive, moved) // kvserver's arenaCompactStride
		}
	}
	if !l.sp.Replay {
		for i := range l.ks.Keys {
			set(int32(i))
		}
	}
	sets := 0
	step := func(i int) {
		op := l.ops[i]
		if op.Set || !have[op.Key] {
			set(op.Key)
			sets++
		} else {
			sink += len(a.Value(refs[op.Key]))
		}
	}
	// One untimed pass first: a segment's first touch is a page fault, which
	// a server in steady state has long paid.
	for i := range l.ops {
		step(i)
	}
	r0 := a.Stats().RelocatedBytes
	sets = 0
	l.out["alloc.arena_ns"] = l.timeChunks("alloc.arena", len(l.ops), step)
	l.out["alloc.relocated_bytes_per_set"] = float64(a.Stats().RelocatedBytes-r0) / float64(max(sets, 1))

	table := make([][]byte, len(l.ks.Keys))
	if !l.sp.Replay {
		for i, v := range l.values {
			table[i] = append([]byte(nil), v...)
		}
	}
	twin := func(i int) {
		op := l.ops[i]
		if op.Set || table[op.Key] == nil {
			v := make([]byte, len(l.values[op.Key]))
			copy(v, l.values[op.Key])
			table[op.Key] = v
		} else {
			sink += len(table[op.Key])
		}
	}
	for i := range l.ops {
		twin(i)
	}
	// With this process's large live heap the collector would let the twin
	// grow into never-touched memory for the whole pass; a tight GC target
	// makes it recycle warm spans, as a byte-mode server in steady state does.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	l.out["alloc.copy_ns"] = l.timeChunks("alloc.copy", len(l.ops), twin)
	_ = sink
	return nil
}

// persistOps bounds the journaled sets (arena_mixed's would otherwise write
// gigabytes); persistAlwaysOps bounds the fsync-per-append pass, whose cost
// is the sandbox's disk and not a device's.
const (
	persistOps       = 8 << 10
	persistAlwaysOps = 512
)

// persist journals the stream's sets: Manager.Append under everysec,
// AppendBatch of 32, and — reported but sandbox-only — Append under always.
func (l *layers) persist() error {
	var sets []persist.Op
	var user int64
	for _, op := range l.ops {
		if len(sets) == persistOps {
			break
		}
		if op.Set || l.sp.Replay { // a replay's every miss is a set
			k := l.ks.Keys[op.Key]
			sets = append(sets, persist.Op{Kind: persist.KindSet, Key: k, Value: l.values[op.Key],
				Size: int64(l.ks.Sizes[op.Key]), Cost: l.ks.Costs[op.Key]})
			user += int64(len(k) + len(l.values[op.Key]))
		}
	}
	open := func(sub, fsync string) (*persist.Manager, error) {
		m, _, err := persist.Open(persist.Options{Dir: filepath.Join(l.dir, sub), Fsync: fsync, AOFLimit: 1 << 40},
			func(persist.Op) error { return nil })
		return m, err
	}
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	m, err := open("journal-everysec", persist.FsyncEverySec)
	if err != nil {
		return err
	}
	base := m.Info().AOFSize
	l.out["persist.append_ns"] = l.timeChunks("persist.append", len(sets), func(i int) { note(m.Append(sets[i])) })
	l.out["persist.bytes_per_user_byte"] = float64(m.Info().AOFSize-base) / float64(max(user, 1))
	note(m.Close())

	if m, err = open("journal-batch", persist.FsyncEverySec); err != nil {
		return err
	}
	l.out["persist.batch32_ns"] = l.timeChunks("persist.batch32", len(sets)/32, func(i int) {
		note(m.AppendBatch(sets[i*32 : i*32+32]))
	}) / 32
	note(m.Close())

	if m, err = open("journal-always", persist.FsyncAlways); err != nil {
		return err
	}
	l.out["persist.append_always_ns"] = l.timeChunks("persist.append_always", min(len(sets), persistAlwaysOps),
		func(i int) { note(m.Append(sets[i])) })
	note(m.Close())
	if firstErr != nil {
		return fmt.Errorf("persist replay: %w", firstErr)
	}
	return os.RemoveAll(l.dir)
}

// kvclient: MultiGetFunc and SetNoreply against a canned responder. The
// package exports only Dial, so the "connection" is a loopback socket to a
// goroutine in this process that answers every get from prebuilt values:
// the figure includes that responder and two socket calls per batch.
func (l *layers) kvclient() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		l.respond(c)
	}()
	cli, err := kvclient.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	per := max(l.sp.Sets+l.sp.GetKeys, 1)
	if l.sp.Replay {
		per = l.sp.GetKeys
	}
	keys := make([]string, 0, per)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ns := l.timeChunks("kvclient.codec", len(l.ops)/per, func(i int) {
		keys = keys[:0]
		for _, op := range l.ops[i*per : (i+1)*per] {
			if op.Set {
				note(cli.SetNoreply(l.ks.Keys[op.Key], l.values[op.Key], 0, 0, l.ks.Costs[op.Key]))
			} else {
				keys = append(keys, l.ks.Keys[op.Key])
			}
		}
		note(cli.MultiGetFunc(func(_, _ []byte, _ uint32) {}, keys...))
	})
	l.out["kvclient.codec_ns"] = ns / float64(per)
	cli.Close()
	wg.Wait()
	return firstErr
}

// respond is the canned responder: it swallows sets and answers each get
// with every requested key's prebuilt value.
func (l *layers) respond(c net.Conn) {
	br := bufio.NewReaderSize(c, 256<<10)
	bw := bufio.NewWriterSize(c, 256<<10)
	lr := proto.NewLineReader(br)
	var toks [][]byte
	var head []byte
	for {
		ln, err := lr.ReadLine()
		if err != nil {
			return
		}
		toks = proto.Tokenize(ln, toks[:0])
		switch {
		case len(toks) >= 5 && string(toks[0]) == "set":
			n, _ := proto.ParseUint(toks[4])
			if _, err := br.Discard(int(n) + 2); err != nil {
				return
			}
		case len(toks) >= 1 && string(toks[0]) == "get":
			for _, k := range toks[1:] {
				v := l.values[keyIndex(k)]
				head = append(append(append(head[:0], "VALUE "...), k...), " 0 "...)
				head = append(strconv.AppendInt(head, int64(len(v)), 10), '\r', '\n')
				bw.Write(head)
				bw.Write(v)
				bw.WriteString("\r\n")
			}
			bw.WriteString("END\r\n")
			if bw.Flush() != nil {
				return
			}
		}
	}
}

// camp: the library front door, root camp.Cache Get/Set with values; twin:
// a mutex and a map[string][]byte, which never evicts.
func (l *layers) camp() error {
	c, err := camp.New(l.sp.MemBytes)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	m := make(map[string][]byte, len(l.ks.Keys))
	if !l.sp.Replay {
		for i, k := range l.ks.Keys {
			c.Set(k, l.values[i], l.ks.Costs[i])
			m[k] = l.values[i]
		}
	}
	l.out["camp.cache_ns"] = l.timeChunks("camp.cache", len(l.ops), func(i int) {
		op := l.ops[i]
		k := l.ks.Keys[op.Key]
		if op.Set {
			c.Set(k, l.values[op.Key], l.ks.Costs[op.Key])
		} else if _, ok := c.Get(k); !ok {
			c.Set(k, l.values[op.Key], l.ks.Costs[op.Key])
		}
	})
	l.out["baseline.map_ns"] = l.timeChunks("baseline.map", len(l.ops), func(i int) {
		op := l.ops[i]
		k := l.ks.Keys[op.Key]
		mu.Lock()
		if _, ok := m[k]; op.Set || !ok {
			m[k] = l.values[op.Key]
		}
		mu.Unlock()
	})
	return nil
}
