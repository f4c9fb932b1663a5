// Package kvclient is a minimal memcached-text-protocol client for the
// kvserver package, standing in for the Whalin Java client the paper's §4
// experiment drives its IQ Twemcache deployment with.
//
// The hot paths share internal/proto's zero-copy line reader, tokenizer and
// []byte integer parsers with the server: commands are built by appending
// into a reusable buffer instead of fmt.Fprintf, and responses parse without
// per-line string allocation. MultiGetFunc exposes the allocation-free read
// path directly by lending out the client's scratch buffers.
package kvclient

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"camp/internal/proto"
)

// Client is a single-connection KVS client. It is not safe for concurrent
// use; open one client per goroutine.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	lr   *proto.LineReader
	w    *bufio.Writer

	// Reusable scratch: outgoing command lines, response tokens, and the
	// key/value copies MultiGetFunc lends to its callback.
	cmd []byte
	tok [][]byte
	key []byte
	val []byte
}

// ErrServer wraps SERVER_ERROR responses.
var ErrServer = errors.New("kvclient: server error")

// ErrOverQuota reports a request shed by the server's per-tenant request
// quota ("SERVER_ERROR tenant over quota"); it wraps ErrServer, so existing
// errors.Is(err, ErrServer) checks keep matching. Retry after backing off.
var ErrOverQuota = fmt.Errorf("%w: tenant over quota", ErrServer)

// ErrProtocol reports an unparsable response.
var ErrProtocol = errors.New("kvclient: protocol error")

// Dial connects to a kvserver at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("kvclient: dial %s: %w", addr, err)
	}
	r := bufio.NewReader(conn)
	return &Client{
		conn: conn,
		r:    r,
		lr:   proto.NewLineReader(r),
		w:    bufio.NewWriter(conn),
	}, nil
}

// DialWithTenant connects to a kvserver and scopes the connection to the
// named tenant ("default" restores the namespace legacy clients use).
func DialWithTenant(addr, tenant string) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.Tenant(tenant); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Tenant switches this connection to the named tenant. The scope is per
// connection and sticks until the next Tenant call; a bare FlushAll after
// this clears only this tenant.
func (c *Client) Tenant(name string) error {
	if err := c.writeLineCmd("tenant", name); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	want := "TENANT " + name
	if string(line) != want {
		return fmt.Errorf("%w: unexpected tenant response %q", ErrServer, line)
	}
	return nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.w.WriteString("quit\r\n")
	c.w.Flush()
	return c.conn.Close()
}

// readLine returns the next response line, borrowed from the read buffer:
// it is only valid until the next read.
func (c *Client) readLine() ([]byte, error) {
	return c.lr.ReadLine()
}

// send writes one command line and flushes it. A write error sticks to the
// buffered writer, so Flush reports it.
func (c *Client) send(cmd string) error {
	c.w.WriteString(cmd)
	c.w.WriteString("\r\n")
	return c.w.Flush()
}

// roundTrip sends one command line and returns the one-line reply, borrowed
// as readLine's is.
func (c *Client) roundTrip(cmd string) ([]byte, error) {
	if err := c.send(cmd); err != nil {
		return nil, err
	}
	return c.readLine()
}

// Get fetches one key; ok is false on a miss.
func (c *Client) Get(key string) (value []byte, ok bool, err error) {
	vals, err := c.MultiGet(key)
	if err != nil {
		return nil, false, err
	}
	v, ok := vals[key]
	return v, ok, nil
}

// MultiGet fetches several keys in one round trip, returning the hits.
func (c *Client) MultiGet(keys ...string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	err := c.MultiGetFunc(func(key, value []byte, flags uint32) {
		out[string(key)] = append([]byte(nil), value...)
	}, keys...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MultiGetFunc fetches several keys in one round trip and calls fn once per
// hit, in server-reply order. The key and value slices are borrowed from the
// client's reusable buffers: they are valid only during the callback and
// must be copied to be retained. This is the allocation-free read path —
// MultiGet is this plus a map and copies.
func (c *Client) MultiGetFunc(fn func(key, value []byte, flags uint32), keys ...string) error {
	if len(keys) == 0 {
		return errors.New("kvclient: MultiGet needs at least one key")
	}
	cmd := append(c.cmd[:0], "get"...)
	for _, k := range keys {
		cmd = append(cmd, ' ')
		cmd = append(cmd, k...)
	}
	cmd = append(cmd, '\r', '\n')
	c.cmd = cmd
	if _, err := c.w.Write(cmd); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if string(line) == "END" {
			return nil
		}
		c.tok = proto.Tokenize(line, c.tok[:0])
		toks := c.tok
		if len(toks) != 4 || string(toks[0]) != "VALUE" {
			return fmt.Errorf("%w: unexpected line %q", ErrProtocol, line)
		}
		flags, okFlags := proto.ParseUint32(toks[2])
		n, okLen := proto.ParseInt(toks[3])
		if !okFlags || !okLen || n < 0 {
			return fmt.Errorf("%w: bad length in %q", ErrProtocol, line)
		}
		// The tokens alias the read buffer; copy the key out before the
		// value read below invalidates it.
		c.key = append(c.key[:0], toks[1]...)
		if int64(cap(c.val)) < n {
			c.val = make([]byte, n)
		}
		value := c.val[:n]
		if _, err := io.ReadFull(c.r, value); err != nil {
			return err
		}
		if crlf, err := c.readLine(); err != nil {
			return err
		} else if len(crlf) != 0 {
			return fmt.Errorf("%w: missing CRLF after value", ErrProtocol)
		}
		fn(c.key, value, flags)
		// Don't let one huge value pin its buffer for the client's
		// lifetime (the server caps its pooled scratch the same way).
		if cap(c.val) > maxValScratch {
			c.val = nil
		}
	}
}

// maxValScratch caps the reusable value buffer MultiGetFunc keeps between
// calls.
const maxValScratch = 64 << 10

var crlf = []byte("\r\n")

// writeStore sends "<cmd> <key> <flags> <ttl> <bytes>[ <cost>][ noreply]\r\n<value>\r\n".
// Only the header goes through the command scratch; the value is written
// directly, so no copy is made and the scratch never grows past header
// size.
func (c *Client) writeStore(cmd, key string, value []byte, flags uint32, ttl, cost int64, noreply bool) error {
	buf := append(c.cmd[:0], cmd...)
	buf = append(buf, ' ')
	buf = append(buf, key...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, uint64(flags), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, ttl, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(value)), 10)
	if cost > 0 {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, cost, 10)
	}
	if noreply {
		buf = append(buf, " noreply"...)
	}
	buf = append(buf, '\r', '\n')
	c.cmd = buf
	if _, err := c.w.Write(buf); err != nil {
		return err
	}
	if _, err := c.w.Write(value); err != nil {
		return err
	}
	_, err := c.w.Write(crlf)
	return err
}

// writeLineCmd sends "<verb> <key>[ <extra>...]\r\n" and flushes — the
// shape every synchronous single-key command shares.
func (c *Client) writeLineCmd(verb, key string, extra ...string) error {
	buf := append(c.cmd[:0], verb...)
	buf = append(buf, ' ')
	buf = append(buf, key...)
	for _, e := range extra {
		buf = append(buf, ' ')
		buf = append(buf, e...)
	}
	buf = append(buf, '\r', '\n')
	c.cmd = buf
	if _, err := c.w.Write(buf); err != nil {
		return err
	}
	return c.w.Flush()
}

// Set stores a value. ttl is in seconds (0 = no expiry). cost of 0 lets the
// server derive the cost from the IQ miss-to-set latency.
func (c *Client) Set(key string, value []byte, flags uint32, ttl int64, cost int64) error {
	if err := c.writeStore("set", key, value, flags, ttl, cost, false); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	switch {
	case string(line) == "STORED":
		return nil
	case bytes.Equal(line, overQuotaLine):
		return ErrOverQuota
	case bytes.HasPrefix(line, serverErrorPrefix):
		return fmt.Errorf("%w: %s", ErrServer, line)
	default:
		return fmt.Errorf("%w: unexpected set response %q", ErrProtocol, line)
	}
}

// SetNoreply stores a value with the noreply flag: the server sends no
// response, so many sets can be pipelined into one buffered write. The
// command sits in the client buffer until Flush (or a synchronous call's
// flush) pushes it out; write errors surface here or there.
func (c *Client) SetNoreply(key string, value []byte, flags uint32, ttl int64, cost int64) error {
	return c.writeStore("set", key, value, flags, ttl, cost, true)
}

// Flush pushes buffered noreply commands to the server.
func (c *Client) Flush() error { return c.w.Flush() }

// Add stores a value only if the key is absent; ok reports whether it was
// stored.
func (c *Client) Add(key string, value []byte, flags uint32, ttl, cost int64) (bool, error) {
	return c.storeCmd("add", key, value, flags, ttl, cost)
}

// Replace stores a value only if the key is present.
func (c *Client) Replace(key string, value []byte, flags uint32, ttl, cost int64) (bool, error) {
	return c.storeCmd("replace", key, value, flags, ttl, cost)
}

// Append concatenates data after an existing value.
func (c *Client) Append(key string, value []byte) (bool, error) {
	return c.storeCmd("append", key, value, 0, 0, 0)
}

// Prepend concatenates data before an existing value.
func (c *Client) Prepend(key string, value []byte) (bool, error) {
	return c.storeCmd("prepend", key, value, 0, 0, 0)
}

var serverErrorPrefix = []byte("SERVER_ERROR")
var clientErrorPrefix = []byte("CLIENT_ERROR")
var overQuotaLine = []byte("SERVER_ERROR tenant over quota")

func (c *Client) storeCmd(cmd, key string, value []byte, flags uint32, ttl, cost int64) (bool, error) {
	if err := c.writeStore(cmd, key, value, flags, ttl, cost, false); err != nil {
		return false, err
	}
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch {
	case string(line) == "STORED":
		return true, nil
	case string(line) == "NOT_STORED":
		return false, nil
	case bytes.Equal(line, overQuotaLine):
		return false, ErrOverQuota
	case bytes.HasPrefix(line, serverErrorPrefix):
		return false, fmt.Errorf("%w: %s", ErrServer, line)
	default:
		return false, fmt.Errorf("%w: unexpected %s response %q", ErrProtocol, cmd, line)
	}
}

// Incr adds delta to a numeric value, returning the new value; ok is false
// when the key is absent.
func (c *Client) Incr(key string, delta uint64) (value uint64, ok bool, err error) {
	return c.arith("incr", key, delta)
}

// Decr subtracts delta from a numeric value (clamping at zero), returning
// the new value; ok is false when the key is absent.
func (c *Client) Decr(key string, delta uint64) (value uint64, ok bool, err error) {
	return c.arith("decr", key, delta)
}

func (c *Client) arith(cmd, key string, delta uint64) (uint64, bool, error) {
	if err := c.writeLineCmd(cmd, key, strconv.FormatUint(delta, 10)); err != nil {
		return 0, false, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, false, err
	}
	switch {
	case string(line) == "NOT_FOUND":
		return 0, false, nil
	case bytes.HasPrefix(line, clientErrorPrefix), bytes.HasPrefix(line, serverErrorPrefix):
		return 0, false, fmt.Errorf("%w: %s", ErrServer, line)
	}
	v, ok := proto.ParseUint(line)
	if !ok {
		return 0, false, fmt.Errorf("%w: unexpected %s response %q", ErrProtocol, cmd, line)
	}
	return v, true, nil
}

// Touch updates a key's expiry; ok is false when the key is absent.
func (c *Client) Touch(key string, ttl int64) (bool, error) {
	if err := c.writeLineCmd("touch", key, strconv.FormatInt(ttl, 10)); err != nil {
		return false, err
	}
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch string(line) {
	case "TOUCHED":
		return true, nil
	case "NOT_FOUND":
		return false, nil
	default:
		return false, fmt.Errorf("%w: unexpected touch response %q", ErrProtocol, line)
	}
}

// Delete removes a key, reporting whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	if err := c.writeLineCmd("delete", key); err != nil {
		return false, err
	}
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch string(line) {
	case "DELETED":
		return true, nil
	case "NOT_FOUND":
		return false, nil
	default:
		return false, fmt.Errorf("%w: unexpected delete response %q", ErrProtocol, line)
	}
}

// ReplicaPromote promotes the server this client talks to from replica to
// primary: replication stops and the server starts accepting writes.
func (c *Client) ReplicaPromote() error {
	return c.okCmd("replica promote")
}

// Debug returns the server-side metadata line for a key.
func (c *Client) Debug(key string) (string, bool, error) {
	if err := c.writeLineCmd("debug", key); err != nil {
		return "", false, err
	}
	line, err := c.readLine()
	if err != nil {
		return "", false, err
	}
	if string(line) == "NOT_FOUND" {
		return "", false, nil
	}
	if !bytes.HasPrefix(line, []byte("DEBUG ")) {
		return "", false, fmt.Errorf("%w: unexpected debug response %q", ErrProtocol, line)
	}
	return string(line), true, nil
}

// FlushAll empties the connection's current tenant (every tenant's data, on
// a connection that never switched off the default tenant-scoping rules —
// see FlushAllTenants for the unconditional form).
func (c *Client) FlushAll() error {
	return c.okCmd("flush_all")
}

// FlushAllTenants empties the whole server — every tenant's entries — via
// the explicit "flush_all all" admin form.
func (c *Client) FlushAllTenants() error {
	return c.okCmd("flush_all all")
}

// Version returns the server version banner.
func (c *Client) Version() (string, error) {
	line, err := c.roundTrip("version")
	if err != nil {
		return "", err
	}
	if !bytes.HasPrefix(line, []byte("VERSION ")) {
		return "", fmt.Errorf("%w: unexpected version response %q", ErrProtocol, line)
	}
	return string(line[len("VERSION "):]), nil
}
