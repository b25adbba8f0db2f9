package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestItemsRoundTrip: EncodeItems/DecodeItems must preserve every item
// field, including registered application payloads, and the decode must be
// copy-mode — snapshot blobs outlive the buffers they were parsed from.
func TestItemsRoundTrip(t *testing.T) {
	in := []core.Item{
		{Origin: 1<<40 | 2, Seq: 9, Key: 42, Value: []byte("abcd")},
		{Origin: 3, Seq: 10, Key: 43, ReqID: 7, Parts: 2, Value: core.Collection{uint64(5), nil}},
		{Seq: 11, Value: nil},
		{Seq: 12, Value: fuzzPayload{N: -3, S: "app"}},
	}
	data, err := EncodeItems(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeItems(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n  %#v\n  %#v", in, out)
	}
	// Copy semantics: scribbling over the encoded buffer must not reach
	// the decoded values.
	idx := bytes.Index(data, []byte("abcd"))
	if idx < 0 {
		t.Fatal("payload bytes not found in encoding")
	}
	data[idx] = 'z'
	if got := out[0].Value.([]byte); !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("decoded value aliases the buffer: %q", got)
	}
}

// TestDecodeItemsHostileCount: a header claiming 2^30 items in a
// five-byte body must be rejected up front, not allocated.
func TestDecodeItemsHostileCount(t *testing.T) {
	if _, err := DecodeItems([]byte{0x80, 0x80, 0x80, 0x80, 0x04}); err == nil {
		t.Fatal("hostile item count accepted")
	}
}

// TestDecodeItemsTrailingBytes: trailing garbage after the declared items
// means the buffer is not what the encoder wrote — reject it.
func TestDecodeItemsTrailingBytes(t *testing.T) {
	data, err := EncodeItems([]core.Item{{Seq: 1, Key: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeItems(append(data, 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodeItemsEmpty: zero items round-trip (the nil/empty distinction
// is not preserved, only the contents).
func TestDecodeItemsEmpty(t *testing.T) {
	data, err := EncodeItems(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeItems(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d items from an empty encoding", len(out))
	}
}
