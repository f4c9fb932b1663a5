package kvbuf

import (
	"bytes"
	"strings"
	"testing"
)

// TestRoundTrip builds buffers across the key lengths where the uvarint
// prefix changes width (127 fits one byte, 128 takes two) and reads the key
// and value back out in every form.
func TestRoundTrip(t *testing.T) {
	for _, klen := range []int{1, 127, 128, 300, 1 << 14} {
		for _, vlen := range []int{0, 1, 1000} {
			key := strings.Repeat("k", klen)
			value := bytes.Repeat([]byte{'v'}, vlen)
			kv := Of([]byte(key), value[:vlen/2], value[vlen/2:])
			if Key(kv) != key || string(KeyBytes(kv)) != key || !bytes.Equal(Value(kv), value) {
				t.Fatalf("klen %d vlen %d: read back key %d B, value %d B", klen, vlen, len(Key(kv)), len(Value(kv)))
			}
			ko := KeyOnly(kv)
			if Key(ko) != key || len(Value(ko)) != 0 || (vlen == 0) != (&ko[0] == &kv[0]) {
				t.Fatalf("klen %d vlen %d: KeyOnly kept %d value bytes (shared %v)", klen, vlen, len(Value(ko)), &ko[0] == &kv[0])
			}
		}
	}
	if Key(nil) != "" || len(Value(nil)) != 0 {
		t.Fatal("a nil buffer must hold the empty key and no value")
	}
}

// TestKeyAllocatesNothing pins that Key is a view of the buffer, not a
// copy: the get path reads every probed key through it.
func TestKeyAllocatesNothing(t *testing.T) {
	kv := New([]byte("some-key"), 4)
	var k string
	if n := testing.AllocsPerRun(100, func() { k = Key(kv) }); n != 0 || k != "some-key" {
		t.Fatalf("Key = %q with %v allocations", k, n)
	}
}
