package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"time"

	"camp/internal/kvbuf"
	"camp/internal/persist"
	"camp/internal/proto"
)

// verbID indexes the per-verb latency histograms and command counters.
type verbID int8

const (
	verbGet verbID = iota
	verbSet
	verbAdd
	verbReplace
	verbAppend
	verbPrepend
	verbIncr
	verbDecr
	verbTouch
	verbDelete
	verbOther
	numVerbs

	// verbNone marks commands excluded from latency accounting: quit, and
	// the replication handshake verbs whose handlers hold the connection
	// open for the stream's lifetime (their "latency" would be the feed's).
	verbNone verbID = -1
)

// verbNames are the histogram labels, indexed by verbID. They are
// constants, so slowlog entries can retain them without copying.
var verbNames = [numVerbs]string{
	"get", "set", "add", "replace", "append", "prepend",
	"incr", "decr", "touch", "delete", "other",
}

// command is one row of the verb table. A keyed mutation is described by its
// grammar and a body, and mutate takes it through the gates; every other verb
// is a handle that parses its own arguments.
type command struct {
	// name is the verb on the wire; verb is what it is counted and timed under.
	name string
	verb verbID

	// minArgs and maxArgs bound the arguments after the key, a trailing
	// noreply trimmed. payload says a data block follows; its length is the
	// last required argument. parse reads the arguments after the key into
	// connState.op and returns nil or the error reply (nil parse: there are
	// none). body runs under the key's shard lock and returns the reply.
	minArgs, maxArgs int
	payload          bool
	parse            func(cs *connState, args [][]byte) []byte
	body             func(sh *shard, cs *connState) []byte

	// handle serves every other verb and parses its own arguments.
	handle func(s *Server, args [][]byte, cs *connState) error
}

// commands is the verb table: every command the server speaks is one row.
// commandFor scans it, so the hot verbs lead.
var commands = []command{
	{name: "get", verb: verbGet, handle: (*Server).handleGet},
	storage(verbSet),
	{name: "gets", verb: verbGet, handle: (*Server).handleGet},
	storage(verbAdd),
	storage(verbReplace),
	storage(verbAppend),
	storage(verbPrepend),
	{name: "incr", verb: verbIncr, minArgs: 1, maxArgs: 1, parse: parseDelta, body: arithBody},
	{name: "decr", verb: verbDecr, minArgs: 1, maxArgs: 1, parse: parseDelta, body: arithBody},
	{name: "touch", verb: verbTouch, minArgs: 1, maxArgs: 1, parse: parseExptime, body: touchBody},
	{name: "delete", verb: verbDelete, body: deleteBody},

	{name: "stats", verb: verbOther, handle: (*Server).handleStats},
	{name: "slowlog", verb: verbOther, handle: (*Server).handleSlowlog},
	{name: "tenant", verb: verbOther, handle: (*Server).handleTenant},
	{name: "flush_all", verb: verbOther, handle: (*Server).handleFlushAll},
	{name: "version", verb: verbOther, handle: answer(replyVersion)},
	{name: "debug", verb: verbOther, handle: (*Server).handleDebug},
	{name: "replica", verb: verbOther, handle: (*Server).handleReplica},
	{name: "replconf", verb: verbNone, handle: (*Server).handleReplconf},
	{name: "sync", verb: verbNone, handle: (*Server).handleSync},
	{name: "quit", verb: verbNone, handle: func(*Server, [][]byte, *connState) error { return errQuit }},
}

// unknownCommand answers a verb the table lacks; it is timed under "other".
var unknownCommand = command{verb: verbOther, handle: answer(replyError)}

// commandFor finds a verb's row. The table is short and its hot rows come
// first, so a scan costs less than hashing the verb.
func commandFor(verb []byte) *command {
	for i := range commands {
		if commands[i].name == string(verb) {
			return &commands[i]
		}
	}
	return &unknownCommand
}

// storage is the row of set, add, replace, append and prepend:
//
//	<cmd> <key> <flags> <exptime> <bytes> [cost] [noreply]\r\n<data>\r\n
func storage(v verbID) command {
	return command{name: verbNames[v], verb: v, minArgs: 3, maxArgs: 4, payload: true, parse: parseStore, body: storeBody}
}

// answer is a handle that replies with a constant, whatever the arguments.
func answer(reply []byte) func(*Server, [][]byte, *connState) error {
	return func(_ *Server, _ [][]byte, cs *connState) error { return cs.send(reply) }
}

// errQuit ends the connection after what is staged has been sent.
var errQuit = errors.New("kvserver: quit")

// mutation is the keyed mutation in flight: the row's parse and mutate fill
// it, the row's body reads it under the shard lock; its key is cs.keyBuf. It
// is not cleared between commands: a body reads only what its row sets.
type mutation struct {
	verb  verbID
	kv    []byte // the new item's buffer, value included, when the payload was read into one
	value []byte
	flags uint32
	ttl   int64
	cost  int64
	delta uint64
	now   int64 // Server.now, read once per command
}

// dispatch handles one command line; a non-nil error closes the connection
// (errQuit for quit). It resolves the row, and for every timed verb copies the
// key into pooled scratch (the tokens alias the read buffer, which a payload
// read invalidates) and, after the command, records the per-verb and
// per-shard histograms and the slowlog check — atomic adds and a memcpy, so
// the request loop stays allocation-free.
func (s *Server) dispatch(line []byte, cs *connState) error {
	cs.tokens = proto.Tokenize(line, cs.tokens[:0])
	toks := cs.tokens
	if len(toks) == 0 {
		return cs.send(replyError)
	}
	cmd := commandFor(toks[0])
	if cmd.verb == verbNone {
		return s.run(cmd, toks, cs)
	}
	cs.shardIdx = -1
	if len(toks) > 1 {
		cs.slowKey = append(cs.slowKey[:0], toks[1]...)
	} else {
		cs.slowKey = cs.slowKey[:0]
	}
	start := time.Now()
	err := s.run(cmd, toks, cs)
	s.observe(cmd.verb, cs.shardIdx, cs.slowKey, time.Since(start), start)
	return err
}

// run executes a resolved command: a handle row itself, a mutation row
// through mutate.
func (s *Server) run(cmd *command, toks [][]byte, cs *connState) error {
	if s.testHookCmd != nil {
		s.testHookCmd(toks)
	}
	if cmd.handle != nil {
		return cmd.handle(s, toks[1:], cs)
	}
	return s.mutate(cmd, toks[1:], cs)
}

// mutate takes a keyed mutation through the gates in their one order:
//
//  1. grammar — arity, the arguments, the value-size limit, a NUL in the key
//     (one could forge another tenant's namespace prefix);
//  2. the data block;
//  3. the replica gate;
//  4. the tenant quota;
//  5. count, route, lock, the expiry sweep and the body, unlock, and the
//     lock-hold sample.
//
// A data block the client has committed to is consumed before any reply, so a
// refused, shed or malformed write never desynchronizes the stream; noreply
// suppresses every reply, errors included, as memcached does.
func (s *Server) mutate(cmd *command, args [][]byte, cs *connState) error {
	args, noreply := trimNoreply(args)
	m := &cs.op
	m.verb = cmd.verb
	var nbytes int64 // the data block's length; -1 while it has not parsed
	if cmd.payload {
		nbytes = -1
		if len(args) > cmd.minArgs {
			if v, ok := proto.ParseInt(args[cmd.minArgs]); ok && v >= 0 {
				nbytes = v
			}
		}
	}
	if n := len(args) - 1; n < cmd.minArgs || n > cmd.maxArgs {
		return reject(cs, cmd, nbytes, noreply, cs.badCommand("command"))
	}
	if nbytes < 0 {
		return reject(cs, cmd, nbytes, noreply, cs.badCommand("arguments"))
	}
	if cmd.parse != nil {
		if reply := cmd.parse(cs, args[1:]); reply != nil {
			return reject(cs, cmd, nbytes, noreply, reply)
		}
	}
	if nbytes > s.cfg.MaxValueBytes {
		// Not reject: a garbage terminator here answers "bad data chunk".
		badChunk, err := drainData(cs.r, nbytes)
		if err != nil {
			return err
		}
		if badChunk {
			cs.reply(noreply, replyBadDataChunk)
			return errCloseConn
		}
		return cs.reply(noreply, replyTooLarge)
	}
	if bytes.IndexByte(args[0], 0) >= 0 {
		reply := replyBadKey
		if cmd.payload {
			reply = cs.badCommand("key")
		}
		return reject(cs, cmd, nbytes, noreply, reply)
	}
	// The key leaves the tokens before the payload read invalidates them. No
	// string is materialized: the bodies look up by bytes.
	cs.keyBuf = append(cs.keyBuf[:0], cs.nsKeyFor(args[0])...)

	if cmd.payload {
		if s.copiesValues || cmd.verb == verbAppend || cmd.verb == verbPrepend {
			// The payload is copied under the shard lock (into the layout or
			// the concatenation) and the journal serializes it before Append
			// returns, so pooled scratch is safe to reuse.
			if cap(cs.valBuf) < int(nbytes) {
				cs.valBuf = make([]byte, nbytes)
			}
			m.kv, m.value = nil, cs.valBuf[:nbytes]
		} else {
			// The payload is read straight into the new item's buffer.
			m.kv = kvbuf.New(cs.keyBuf, int(nbytes))
			m.value = kvbuf.Value(m.kv)
		}
		if _, err := io.ReadFull(cs.r, m.value); err != nil {
			return err
		}
		if err := readDataTerminator(cs.r); err == errBadDataChunk {
			// The stream position past garbage is unknowable: report and close.
			cs.reply(noreply, replyBadDataChunk)
			return errCloseConn
		} else if err != nil {
			return err
		}
	}

	if s.readOnly.Load() {
		return cs.reply(noreply, replyReadOnly)
	}

	m.now = s.now()
	tn := s.tenantOf(cs)
	if shed, err := s.shedOp(cs, tn, m.now, nbytes, noreply); shed || err != nil {
		return err
	}

	s.counters.cmds[cmd.verb].Add(1)
	cs.shardIdx = shardIndex(cs.keyBuf, len(s.shards))
	sh := s.shards[cs.shardIdx]
	sh.mu.Lock()
	lockStart := time.Now()
	// The incremental expiry sweep every mutation pays (store.sweepExpired).
	sh.store.sweepExpired(m.now, expirySweepProbes)
	reply := cmd.body(sh, cs)
	sh.mu.Unlock()
	sh.lockHist.Observe(time.Since(lockStart))
	tn.quota.releaseBytes(nbytes)
	return cs.reply(noreply, reply)
}

// reject answers a malformed mutation. A payload row drains its data block
// first when the length parsed, so the connection survives; when it did not
// — or the drained block's terminator is garbage — the stream position is
// unknowable and the connection closes after the reply, as memcached does.
func reject(cs *connState, cmd *command, nbytes int64, noreply bool, reply []byte) error {
	badChunk := false
	if cmd.payload && nbytes >= 0 {
		var err error
		if badChunk, err = drainData(cs.r, nbytes); err != nil {
			return err
		}
	}
	if err := cs.reply(noreply, reply); err != nil {
		return err
	}
	if nbytes < 0 || badChunk {
		return errCloseConn
	}
	return nil
}

// badCommand builds "CLIENT_ERROR bad <verb> <what>" for the mutation in
// flight into the reply scratch.
func (cs *connState) badCommand(what string) []byte {
	cs.out = appendClientError(cs.out[:0], "bad", verbNames[cs.op.verb], what)
	return cs.out
}

// trimNoreply strips a command's trailing "noreply" token.
func trimNoreply(args [][]byte) (rest [][]byte, noreply bool) {
	if n := len(args); n > 0 && string(args[n-1]) == "noreply" {
		return args[:n-1], true
	}
	return args, false
}

// parseStore reads <flags> <exptime> <bytes> [cost]; mutate has parsed <bytes>.
func parseStore(cs *connState, args [][]byte) []byte {
	m := &cs.op
	var okFlags, okTTL bool
	m.flags, okFlags = proto.ParseUint32(args[0])
	m.ttl, okTTL = proto.ParseInt(args[1])
	m.cost = 0
	okCost := true
	if len(args) == 4 {
		m.cost, okCost = proto.ParseInt(args[3])
	}
	if !okFlags || !okTTL || !okCost || m.cost < 0 {
		return cs.badCommand("arguments")
	}
	return nil
}

func parseDelta(cs *connState, args [][]byte) []byte {
	var ok bool
	if cs.op.delta, ok = proto.ParseUint(args[0]); !ok {
		return replyBadDelta
	}
	return nil
}

func parseExptime(cs *connState, args [][]byte) []byte {
	var ok bool
	if cs.op.ttl, ok = proto.ParseInt(args[0]); !ok {
		return replyBadExptime
	}
	return nil
}

func storeBody(sh *shard, cs *connState) []byte {
	m := &cs.op
	return sh.storeLocked(m.verb, cs.keyBuf, m.kv, m.value, m.flags, m.ttl, m.cost, m.now)
}

func arithBody(sh *shard, cs *connState) []byte {
	m := &cs.op
	val, reply := sh.arithLocked(m.verb == verbIncr, cs.keyBuf, m.delta, m.now)
	if reply != nil {
		return reply
	}
	cs.out = append(strconv.AppendUint(cs.out[:0], val, 10), '\r', '\n')
	return cs.out
}

func touchBody(sh *shard, cs *connState) []byte {
	m := &cs.op
	it, ok := lookup(sh.store, cs.keyBuf, m.now)
	if !ok {
		return replyNotFound
	}
	sh.store.touch(it, expiryFrom(m.ttl, m.now))
	sh.journalLocked(persist.Op{
		Kind:    persist.KindTouch,
		Key:     it.Key(),
		Expires: it.expires,
	})
	return replyTouched
}

// deleteBody removes a resident key; an expired one is reclaimed and, like a
// get, answered as absent, with nothing journaled.
func deleteBody(sh *shard, cs *connState) []byte {
	it, ok := resident(sh.store, cs.keyBuf, cs.op.now)
	if !ok {
		return replyNotFound
	}
	key := it.Key()
	sh.store.remove(it)
	sh.journalLocked(persist.Op{Kind: persist.KindDelete, Key: key})
	return replyDeleted
}

// drainData discards a data block and its terminator, keeping the stream
// aligned for the next command line. The terminator is parsed, not assumed
// to be two bytes, so bare-LF framing drains correctly too; badChunk
// reports terminator garbage (the caller must close — the stream position
// past it is unknowable).
func drainData(r *bufio.Reader, nbytes int64) (badChunk bool, err error) {
	if _, err = io.CopyN(io.Discard, r, nbytes); err == nil {
		err = readDataTerminator(r)
	}
	if err == errBadDataChunk {
		return true, nil
	}
	return false, err
}

var errBadDataChunk = errors.New("kvserver: bad data chunk")

// readDataTerminator consumes the terminator after a data block: exactly
// "\r\n", or a bare "\n". Anything else — including the "\r\r\n" a
// TrimRight-based reader used to accept — is errBadDataChunk.
func readDataTerminator(r *bufio.Reader) error {
	b, err := r.ReadByte()
	if err == nil && b == '\r' {
		b, err = r.ReadByte()
	}
	if err == nil && b != '\n' {
		err = errBadDataChunk
	}
	return err
}
