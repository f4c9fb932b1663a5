package kvserver

import (
	"bufio"
	"strconv"
	"sync"

	"camp/internal/proto"
)

// connBufSize sizes a connection's reader and writer, 128 KiB in all. 16 KiB
// split a pipelined burst over reads that each added a flush (arena_mixed:
// 0.479 syscalls/op); 64 KiB takes it in one read(2) and one write(2) (0.159).
const connBufSize = 64 << 10

// maxPooledScratch caps the response scratch a connection returns to the
// pool, so one huge stats or debug reply doesn't pin memory forever.
const maxPooledScratch = 64 << 10

// connState is the pooled per-connection scratch that makes the request loop
// allocation-free: the buffered reader/writer pair, the zero-copy line reader,
// token slots for the in-place tokenizer, and the append-based response buffer
// that replaces fmt.Fprintf (and stages a get's VALUE blocks under the shard
// locks). Everything is reused across commands and, via the pool, connections.
type connState struct {
	r  *bufio.Reader
	w  *bufio.Writer
	lr *proto.LineReader

	tokens [][]byte
	out    []byte

	// keyBuf holds a storage command's namespaced key across the payload
	// read (which invalidates the tokens); valBuf is the payload scratch for
	// layouts that copy values — the bytes land in layout memory under the
	// shard lock, so neither buffer outlives its command. Both are reused across
	// commands, keeping the set path allocation-free.
	keyBuf []byte
	valBuf []byte
	// op is the keyed mutation in flight (verbs.go). It lives here, not on
	// mutate's stack, because handing a local to a func-valued body would
	// make it escape: one allocation per mutation.
	op mutation

	// Instrumentation scratch dispatch fills per command: the shard the
	// command routed to (-1 when none) so its latency histogram can be
	// charged after the handler returns, and a copy of the key token —
	// taken before a payload read invalidates the tokens — for slowlog
	// recording. Reused across commands, so neither allocates.
	shardIdx int
	slowKey  []byte

	// tenant is the connection's current tenant, resolved once by the
	// tenant verb; nil means the default tenant (the state every
	// connection starts in). nsKey is scratch for building namespaced
	// store keys, so the hot path adds no allocations.
	tenant *tenant
	nsKey  []byte
	feed   bool // handleSync made the connection a replication feed
}

// nsKeyFor maps a wire key into the connection tenant's namespace: bare for
// the default tenant (legacy layouts stay byte-identical), name+NUL-prefixed
// for any other, built in pooled scratch.
func (cs *connState) nsKeyFor(key []byte) []byte {
	t := cs.tenant
	if t == nil || t.prefix == "" {
		return key
	}
	b := append(cs.nsKey[:0], t.prefix...)
	b = append(b, key...)
	cs.nsKey = b
	return b
}

// drainStaged bounds reply staging: once cs.out has passed maxPooledScratch it
// is handed to the connection's writer and reset, so a multiget of large
// values stages at most that much plus one value instead of the whole reply.
// Callers invoke it between keys, outside any shard lock — the write may
// block on the socket.
func (cs *connState) drainStaged() error {
	if len(cs.out) <= maxPooledScratch {
		return nil
	}
	_, err := cs.w.Write(cs.out)
	cs.out = cs.out[:0]
	return err
}

var connStatePool = sync.Pool{
	New: func() any {
		cs := &connState{
			r:      bufio.NewReaderSize(nil, connBufSize),
			w:      bufio.NewWriterSize(nil, connBufSize),
			tokens: make([][]byte, 0, 32),
			out:    make([]byte, 0, 512),
		}
		cs.lr = proto.NewLineReader(cs.r)
		return cs
	},
}

// getConnState binds pooled scratch to conn and hands conn the writer its
// Read flushes (see countedConn).
func getConnState(conn *countedConn) *connState {
	cs := connStatePool.Get().(*connState)
	cs.r.Reset(conn)
	cs.w.Reset(conn)
	conn.w = cs.w
	return cs
}

// send stages b in the connection's writer; replies leave at the next flush.
func (cs *connState) send(b []byte) error {
	_, err := cs.w.Write(b)
	return err
}

// reply stages b unless the command said noreply.
func (cs *connState) reply(noreply bool, b []byte) error {
	if noreply {
		return nil
	}
	return cs.send(b)
}

func putConnState(cs *connState) {
	cs.r.Reset(nil)
	cs.w.Reset(nil)
	if cap(cs.out) > maxPooledScratch {
		cs.out = make([]byte, 0, 512)
	}
	if cap(cs.keyBuf) > maxPooledScratch {
		cs.keyBuf = nil
	}
	cs.keyBuf = cs.keyBuf[:0]
	if cap(cs.valBuf) > maxPooledScratch {
		cs.valBuf = nil
	}
	cs.valBuf = cs.valBuf[:0]
	cs.op = mutation{} // a pooled state must not pin the last value
	cs.tenant = nil
	cs.feed = false
	if cap(cs.nsKey) > maxPooledScratch {
		cs.nsKey = nil
	}
	cs.nsKey = cs.nsKey[:0]
	connStatePool.Put(cs)
}

// appendStat appends one "STAT <name> <value>\r\n" line.
func appendStat(out []byte, name string, v uint64) []byte {
	out = append(out, "STAT "...)
	out = append(out, name...)
	out = append(out, ' ')
	out = strconv.AppendUint(out, v, 10)
	return append(out, '\r', '\n')
}

// appendStatInt is appendStat for signed values.
func appendStatInt(out []byte, name string, v int64) []byte {
	out = append(out, "STAT "...)
	out = append(out, name...)
	out = append(out, ' ')
	out = strconv.AppendInt(out, v, 10)
	return append(out, '\r', '\n')
}

// appendStatStr is appendStat for string values.
func appendStatStr(out []byte, name, v string) []byte {
	out = append(out, "STAT "...)
	out = append(out, name...)
	out = append(out, ' ')
	out = append(out, v...)
	return append(out, '\r', '\n')
}

// appendClientError appends "CLIENT_ERROR <what...>\r\n" built from constant
// pieces, keeping malformed-command replies off the allocator too.
func appendClientError(out []byte, parts ...string) []byte {
	out = append(out, "CLIENT_ERROR"...)
	for _, p := range parts {
		out = append(out, ' ')
		out = append(out, p...)
	}
	return append(out, '\r', '\n')
}
