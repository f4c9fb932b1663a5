// The server's observability commands: every STAT reply through one
// reader, and the slowlog.
package kvclient

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"camp/internal/proto"
)

// Stats sends one command whose reply is STAT lines ("stats", "stats
// shards", "stats tenants", "stats latency", "replica status") and returns
// the lines as a map from name to value. Every figure is looked up by the
// name the server's table gives it, so a row the server does not send is
// absent, never a zero.
func (c *Client) Stats(cmd string) (map[string]string, error) {
	if err := c.send(cmd); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if string(line) == "END" {
			return out, nil
		}
		if bytes.HasPrefix(line, clientErrorPrefix) || bytes.HasPrefix(line, serverErrorPrefix) {
			return nil, fmt.Errorf("%w: %s", ErrServer, line)
		}
		c.tok = proto.Tokenize(line, c.tok[:0])
		toks := c.tok
		if len(toks) != 3 || string(toks[0]) != "STAT" {
			return nil, fmt.Errorf("%w: unexpected stats line %q", ErrProtocol, line)
		}
		out[string(toks[1])] = string(toks[2])
	}
}

// SlowlogEntry is one recorded slow command from "slowlog get".
type SlowlogEntry struct {
	// ID increments per recorded entry for the server's lifetime; a reset
	// does not rewind it.
	ID       uint64
	Time     time.Time
	Duration time.Duration
	Verb     string
	// Key is the command's key, truncated server-side to 64 bytes; empty
	// for keyless commands.
	Key string
}

// Slowlog fetches the retained slow commands, newest first.
func (c *Client) Slowlog() ([]SlowlogEntry, error) {
	if err := c.send("slowlog get"); err != nil {
		return nil, err
	}
	var out []SlowlogEntry
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if string(line) == "END" {
			return out, nil
		}
		if bytes.HasPrefix(line, clientErrorPrefix) || bytes.HasPrefix(line, serverErrorPrefix) {
			return nil, fmt.Errorf("%w: %s", ErrServer, line)
		}
		c.tok = proto.Tokenize(line, c.tok[:0])
		toks := c.tok
		if len(toks) != 6 || string(toks[0]) != "SLOWLOG" {
			return nil, fmt.Errorf("%w: unexpected slowlog line %q", ErrProtocol, line)
		}
		id, okID := proto.ParseUint(toks[1])
		unix, okUnix := proto.ParseInt(toks[2])
		durUS, okDur := proto.ParseInt(toks[3])
		if !okID || !okUnix || !okDur {
			return nil, fmt.Errorf("%w: bad slowlog line %q", ErrProtocol, line)
		}
		key := string(toks[5])
		if key == "-" {
			key = "" // the server's stand-in for a keyless command
		}
		out = append(out, SlowlogEntry{
			ID:       id,
			Time:     time.Unix(unix, 0),
			Duration: time.Duration(durUS) * time.Microsecond,
			Verb:     string(toks[4]),
			Key:      key,
		})
	}
}

// SlowlogReset discards the retained slow commands.
func (c *Client) SlowlogReset() error {
	return c.okCmd("slowlog reset")
}

// SlowlogSetThreshold sets the slowlog threshold at runtime. The server
// takes whole milliseconds; d is rounded down.
func (c *Client) SlowlogSetThreshold(d time.Duration) error {
	return c.okCmd("slowlog threshold " + strconv.FormatInt(d.Milliseconds(), 10))
}

// okCmd sends one command line and expects OK. The server's own refusal
// (CLIENT_ERROR, SERVER_ERROR) wraps ErrServer; any other reply ErrProtocol.
func (c *Client) okCmd(cmd string) error {
	line, err := c.roundTrip(cmd)
	if err != nil {
		return err
	}
	switch {
	case string(line) == "OK":
		return nil
	case bytes.HasPrefix(line, clientErrorPrefix), bytes.HasPrefix(line, serverErrorPrefix):
		return fmt.Errorf("%w: %s: %s", ErrServer, cmd, line)
	default:
		return fmt.Errorf("%w: unexpected %s response %q", ErrProtocol, cmd, line)
	}
}
