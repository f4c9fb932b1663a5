package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"
)

// Reply errors. ErrRefused and ErrNotStored leave the stream in sync (the
// server answered, with a refusal); ErrProtocol does not.
var (
	ErrRefused   = errors.New("bench: server refused the command")
	ErrNotStored = errors.New("bench: NOT_STORED")
	ErrProtocol  = errors.New("bench: unexpected reply")
	ErrMismatch  = errors.New("bench: value fails its self-check")
)

// Scanner is the driver's minimal reply parser: just enough of the
// memcached text protocol to read STORED, VALUE…END and STAT…END, slicing
// everything out of one reusable buffer. It deliberately does not use
// internal/kvclient, which is itself a measured layer.
type Scanner struct {
	rd   io.Reader
	buf  []byte
	r, w int
	key  []byte
	// OnRead, when set, is told how long each Read blocked; the traced run
	// turns that into socket.wait_read spans.
	OnRead func(start, end time.Time)
}

// NewScanner reads replies from rd.
func NewScanner(rd io.Reader) *Scanner {
	return &Scanner{rd: rd, buf: make([]byte, 256<<10)}
}

// fill reads more bytes, first making room for at least need unread bytes.
func (s *Scanner) fill(need int) error {
	if s.r > 0 && s.r == s.w {
		s.r, s.w = 0, 0
	}
	if len(s.buf)-s.r < need {
		nb := s.buf
		if len(nb) < need {
			nb = make([]byte, 2*need)
		}
		s.w = copy(nb, s.buf[s.r:s.w])
		s.r, s.buf = 0, nb
	}
	if s.w == len(s.buf) {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	var start time.Time
	if s.OnRead != nil {
		start = time.Now()
	}
	n, err := s.rd.Read(s.buf[s.w:])
	if s.OnRead != nil {
		s.OnRead(start, time.Now())
	}
	s.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// line returns the next line without its "\r\n"; the slice is valid until
// the next call.
func (s *Scanner) line() ([]byte, error) {
	for from := s.r; ; {
		if i := bytes.IndexByte(s.buf[from:s.w], '\n'); i >= 0 {
			end := from + i
			ln := s.buf[s.r:end]
			s.r = end + 1
			if n := len(ln); n > 0 && ln[n-1] == '\r' {
				ln = ln[:n-1]
			}
			return ln, nil
		}
		unread := s.w - s.r
		if err := s.fill(unread + 1); err != nil {
			if err == io.EOF && unread > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		from = s.r + unread
	}
}

// data returns the next n bytes and consumes the "\r\n" after them.
func (s *Scanner) data(n int) ([]byte, error) {
	for s.w-s.r < n+2 {
		if err := s.fill(n + 2); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	d := s.buf[s.r : s.r+n]
	if s.buf[s.r+n] != '\r' || s.buf[s.r+n+1] != '\n' {
		return nil, fmt.Errorf("%w: data block not terminated", ErrProtocol)
	}
	s.r += n + 2
	return d, nil
}

// refusal maps an error line to ErrRefused.
func refusal(ln []byte) error {
	if bytes.HasPrefix(ln, []byte("SERVER_ERROR")) || bytes.HasPrefix(ln, []byte("CLIENT_ERROR")) || string(ln) == "ERROR" {
		return fmt.Errorf("%w: %s", ErrRefused, ln)
	}
	return fmt.Errorf("%w: %q", ErrProtocol, ln)
}

// Stored consumes the reply to one storage command.
func (s *Scanner) Stored() error {
	ln, err := s.line()
	if err != nil {
		return err
	}
	switch string(ln) {
	case "STORED":
		return nil
	case "NOT_STORED":
		return ErrNotStored
	}
	return refusal(ln)
}

// Values consumes one get reply, calling fn for every VALUE block up to
// END. key and value are valid only during fn. An error line in place of
// the reply is ErrRefused.
func (s *Scanner) Values(fn func(key, value []byte) error) error {
	for {
		ln, err := s.line()
		if err != nil {
			return err
		}
		if string(ln) == "END" {
			return nil
		}
		if !bytes.HasPrefix(ln, []byte("VALUE ")) {
			return refusal(ln)
		}
		// VALUE <key> <flags> <bytes>
		rest := ln[len("VALUE "):]
		sp := bytes.IndexByte(rest, ' ')
		last := bytes.LastIndexByte(rest, ' ')
		if sp < 0 || last == sp {
			return fmt.Errorf("%w: %q", ErrProtocol, ln)
		}
		n := 0
		for _, c := range rest[last+1:] {
			if c < '0' || c > '9' || n > 1<<28 {
				return fmt.Errorf("%w: %q", ErrProtocol, ln)
			}
			n = n*10 + int(c-'0')
		}
		// data may move the buffer under ln, so the key is copied out first.
		s.key = append(s.key[:0], rest[:sp]...)
		value, err := s.data(n)
		if err != nil {
			return err
		}
		if err := fn(s.key, value); err != nil {
			return err
		}
	}
}

// StatLines consumes a STAT…END reply.
func (s *Scanner) StatLines() (map[string]string, error) {
	out := make(map[string]string)
	for {
		ln, err := s.line()
		if err != nil {
			return nil, err
		}
		if string(ln) == "END" {
			return out, nil
		}
		f := bytes.Fields(ln)
		if len(f) < 2 || string(f[0]) != "STAT" {
			return nil, refusal(ln)
		}
		out[string(f[1])] = string(bytes.Join(f[2:], []byte(" ")))
	}
}
