// Package kvbuf is the one buffer a stored key shares with its value:
//
//	[klen uvarint | key | value]
//
// the head of an arena record (internal/alloc) without its vlen, flags and
// expiry, which the holder keeps beside the buffer. A server item holds
// one, so a resident key and its value are one heap object, and a journal
// or snapshot record decodes straight into one, so recovery hands the store
// a buffer it can keep as is.
//
// A buffer is written once, when it is made, and never again: Key's string
// aliases it, and a Go string must not change under its holder.
package kvbuf

import (
	"encoding/binary"
	"unsafe"
)

// New returns a buffer holding key and vlen zero value bytes, for the caller
// to fill through Value before anyone reads it.
func New(key []byte, vlen int) []byte {
	var hdr [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(hdr[:], uint64(len(key)))
	kv := make([]byte, w+len(key)+vlen)
	copy(kv, hdr[:w])
	copy(kv[w:], key)
	return kv
}

// Of returns a new buffer holding key and, as its value, a copy of the
// parts one after another.
func Of(key []byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	kv := New(key, n)
	v := Value(kv)
	for _, p := range parts {
		v = v[copy(v, p):]
	}
	return kv
}

// head returns the width of kv's length prefix and the key length it
// holds; a key shorter than 128 bytes takes the one-byte path.
func head(kv []byte) (w, klen int) {
	if len(kv) > 0 && kv[0] < 0x80 {
		return 1, int(kv[0])
	}
	n, w := binary.Uvarint(kv)
	return w, int(n)
}

// Key returns kv's key as a string that aliases kv, without copying it. A
// nil buffer holds the empty key.
func Key(kv []byte) string {
	w, n := head(kv)
	return unsafe.String(unsafe.SliceData(kv[w:w+n]), n)
}

// KeyBytes returns kv's key bytes.
func KeyBytes(kv []byte) []byte {
	w, n := head(kv)
	return kv[w : w+n]
}

// Value returns the bytes after kv's key: the value, in a buffer that holds
// one.
func Value(kv []byte) []byte {
	w, n := head(kv)
	return kv[w+n:]
}

// KeyOnly returns kv itself when it holds no value bytes, and otherwise a
// new buffer with kv's key alone, so a holder that keeps the value elsewhere
// does not keep kv's value bytes alive.
func KeyOnly(kv []byte) []byte {
	if len(Value(kv)) == 0 {
		return kv
	}
	return New(KeyBytes(kv), 0)
}
