package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// fuzzPayload exercises the TagGob fallback inside flat frames.
type fuzzPayload struct {
	N int
	S string
}

func init() {
	gob.Register(fuzzPayload{})
}

// TestGobV1Interop: a v2 peer must keep reading v1 (gob) envelopes for
// every message type — mixed-version clusters exist during a rolling
// upgrade — and EncodeGob must keep producing them.
func TestGobV1Interop(t *testing.T) {
	msgs := []struct {
		msgType byte
		in      any
		decode  func(p Payload) (any, error)
	}{
		{MsgInject, Inject{Task: "put", Items: []core.Item{{Origin: ^uint64(0), Seq: 1, Key: 2, Value: []byte("v")}}},
			func(p Payload) (any, error) { var m Inject; err := Unmarshal(p, &m); return m, err }},
		{MsgCall, Call{Task: "get", Item: core.Item{Key: 9}, TimeoutMs: 100},
			func(p Payload) (any, error) { var m Call; err := Unmarshal(p, &m); return m, err }},
		{MsgHeartbeat, Heartbeat{Seq: 77},
			func(p Payload) (any, error) { var m Heartbeat; err := Unmarshal(p, &m); return m, err }},
		{MsgRemoteEmit, RemoteEmit{Edge: 1, Inst: 3, Items: []core.Item{{Origin: 1 << 40, Seq: 5, Key: 6, Value: []byte("e")}}},
			func(p Payload) (any, error) { var m RemoteEmit; err := Unmarshal(p, &m); return m, err }},
	}
	for _, m := range msgs {
		frame, err := EncodeGob(m.msgType, m.in)
		if err != nil {
			t.Fatal(err)
		}
		if frame[1] != VersionGob {
			t.Fatalf("EncodeGob emitted version %d", frame[1])
		}
		msgType, payload, err := Decode(frame)
		if err != nil || msgType != m.msgType {
			t.Fatalf("v1 frame rejected: type %d err %v", msgType, err)
		}
		got, err := m.decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m.in) {
			t.Fatalf("v1 round trip: got %+v, want %+v", got, m.in)
		}
	}
}

// TestFlatEnvelopeForGobOnlyTypeFails: the other interop direction. A flat
// envelope carrying a type this peer only knows as gob means the sender
// runs a future protocol — the failure must be the loud, typed VersionError
// rather than a misparse.
func TestFlatEnvelopeForGobOnlyTypeFails(t *testing.T) {
	_, _, err := Decode([]byte{MsgSnapshot, VersionFlat, 0x01, 0x02})
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error = %v, want *VersionError", err)
	}
	if ve.Got != VersionFlat || ve.Want != VersionGob {
		t.Fatalf("VersionError got/want = %d/%d", ve.Got, ve.Want)
	}
}

// TestEdgeTrimFlatEnvelopeFails: EdgeTrim is gob-only in this protocol
// revision, so a flat envelope for it can only come from a newer peer —
// and must fail with the typed VersionError rather than a misparse. This
// is the exact failure a pre-RemoteEmit (gob-only) peer reports when a
// newer sender emits flat frames it does not understand: loud, typed,
// never silent corruption.
func TestEdgeTrimFlatEnvelopeFails(t *testing.T) {
	_, _, err := Decode([]byte{MsgEdgeTrim, VersionFlat, 0x01, 0x02})
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error = %v, want *VersionError", err)
	}
	if ve.Got != VersionFlat || ve.Want != VersionGob {
		t.Fatalf("VersionError got/want = %d/%d", ve.Got, ve.Want)
	}
}

// TestRemoteEmitBorrowAliasing pins the ownership contract of the flat
// decode path: Unmarshal borrows, so a decoded item's byte payload aliases
// the frame. Transports satisfy this by allocating a fresh buffer per
// read; anything that started reusing frames would corrupt in-flight edge
// items, and this test is the canary.
func TestRemoteEmitBorrowAliasing(t *testing.T) {
	in := RemoteEmit{Edge: 1, Inst: 2, Items: []core.Item{{Origin: 7, Seq: 1, Key: 2, Value: []byte("abcd")}}}
	frame, err := Encode(MsgRemoteEmit, in)
	if err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := Decode(frame)
	if err != nil || msgType != MsgRemoteEmit {
		t.Fatalf("decode: type %d err %v", msgType, err)
	}
	var m RemoteEmit
	if err := Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	got := m.Items[0].Value.([]byte)
	if !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("value = %q", got)
	}
	idx := bytes.Index(frame, []byte("abcd"))
	if idx < 0 {
		t.Fatal("payload bytes not found in frame")
	}
	frame[idx] = 'z'
	if got[0] != 'z' {
		t.Fatal("flat Unmarshal copied the payload; the zero-copy borrow contract broke")
	}
}

// TestEncodeAllocs pins the allocation contract of the hot-path encoders:
// Encode costs at most the one exact-size result copy, and EncodeAppend
// into a buffer with capacity costs nothing. A regression here silently
// re-inflates the per-item dispatch cost the flat codec exists to remove.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact counts only hold in normal builds")
	}
	// Box the messages once: converting a struct to `any` at the call site
	// costs one allocation that belongs to the caller, not the encoder
	// under test.
	var hb any = Heartbeat{Seq: 1}
	var inj any = Inject{Task: "put", Items: []core.Item{{Origin: ^uint64(0), Seq: 1, Key: 2, Value: []byte("value")}}}

	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := Encode(MsgHeartbeat, hb); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Encode(heartbeat) = %.1f allocs/op, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := Encode(MsgInject, inj); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Encode(inject) = %.1f allocs/op, want <= 1", allocs)
	}

	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(200, func() {
		frame, err := EncodeAppend(buf[:0], MsgHeartbeat, hb)
		if err != nil {
			t.Fatal(err)
		}
		buf = frame[:0]
	}); allocs != 0 {
		t.Fatalf("EncodeAppend(heartbeat) = %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		frame, err := EncodeAppend(buf[:0], MsgInject, inj)
		if err != nil {
			t.Fatal(err)
		}
		buf = frame[:0]
	}); allocs != 0 {
		t.Fatalf("EncodeAppend(inject) = %.1f allocs/op, want 0", allocs)
	}
}

// normalizeValue rewrites float64s to their bit patterns so NaN payloads
// (which the fuzzer reaches trivially through TagFloat64) compare equal
// across a re-encode.
func normalizeValue(v any) any {
	switch x := v.(type) {
	case float64:
		return math.Float64bits(x)
	case core.Collection:
		out := make(core.Collection, len(x))
		for i, el := range x {
			out[i] = normalizeValue(el)
		}
		return out
	default:
		return v
	}
}

func normalizeMsg(v any) any {
	switch m := v.(type) {
	case Inject:
		items := make([]core.Item, len(m.Items))
		for i, it := range m.Items {
			it.Value = normalizeValue(it.Value)
			items[i] = it
		}
		m.Items = items
		return m
	case Call:
		m.Item.Value = normalizeValue(m.Item.Value)
		return m
	case CallReply:
		m.Value = normalizeValue(m.Value)
		return m
	case RemoteEmit:
		items := make([]core.Item, len(m.Items))
		for i, it := range m.Items {
			it.Value = normalizeValue(it.Value)
			items[i] = it
		}
		m.Items = items
		return m
	default:
		return v
	}
}

// FuzzFlatRoundTrip covers every flat-encoded message type, including items
// whose values ride the gob fallback: any frame the decoder accepts must
// re-encode and decode to the same message, and nothing may panic.
func FuzzFlatRoundTrip(f *testing.F) {
	seed := func(msgType byte, v any) {
		if frame, err := Encode(msgType, v); err == nil {
			f.Add(frame)
		}
	}
	seed(MsgInject, Inject{Task: "put", Items: []core.Item{
		{Origin: ^uint64(0), Seq: 1, Key: 42, Value: []byte("v1")},
		{Origin: 3, Seq: 2, Key: 43, ReqID: 9, Parts: 2, Value: core.Collection{uint64(7), "x", nil}},
	}})
	seed(MsgInject, Inject{Task: "g", Items: []core.Item{{Value: fuzzPayload{N: 5, S: "gob"}}}})
	seed(MsgInjectAck, InjectAck{Accepted: 17})
	seed(MsgCall, Call{Task: "get", Item: core.Item{Key: 7, Value: nil}, TimeoutMs: 10_000})
	seed(MsgCallReply, CallReply{Value: []byte("reply")})
	seed(MsgCallReply, CallReply{Value: math.Pi})
	seed(MsgHeartbeat, Heartbeat{Seq: 9})
	seed(MsgHeartbeatAck, HeartbeatAck{Seq: 9, Queued: 3})
	seed(MsgRemoteEmit, RemoteEmit{Edge: 2, Inst: 5, Items: []core.Item{
		{Origin: 1<<40 | 3, Seq: 11, Key: 42, Value: []byte("edge")},
		{Origin: 1 << 33, Seq: 12, Key: 43, ReqID: 4, Parts: 3, Value: core.Collection{uint64(1), nil}},
	}})
	seed(MsgRemoteEmit, RemoteEmit{Items: []core.Item{{Value: fuzzPayload{N: 8, S: "gob"}}}})
	seed(MsgRemoteEmitAck, RemoteEmitAck{Accepted: 64})
	seed(MsgSnapBegin, SnapBegin{Stream: 7, Chunks: 2, MaxBytes: 4096})
	seed(MsgSnapBegin, SnapBegin{Stream: 8, MaxBytes: 1 << 20, Have: 6, Rebase: []SEInst{{"store", 1}, {"counts", 0}}})
	seed(MsgSnapBeginAck, SnapBeginAck{Stream: 7, Epoch: 7})
	seed(MsgSnapNext, SnapNext{Stream: 7, Seq: 3})
	seed(MsgSnapChunk, SnapChunk{Stream: 7, Seq: 3, Part: SnapPart{
		Kind: PartSE, Name: "store", Index: 1, Store: 1, ChunkIndex: 2, ChunkOf: 4,
		Delta: true, Data: []byte("chunk"),
	}})
	seed(MsgSnapChunk, SnapChunk{Stream: 7, Seq: 4, Part: SnapPart{
		Kind: PartTE, Name: "put", Watermarks: map[uint64]uint64{1: 9, ^uint64(0): 3}, OutSeq: 11,
	}})
	// A delta part as the worker serves it: two updates, one tombstone.
	deltaChunk := []byte{2, 5, 1, 'a', 9, 2, 'b', 'c', 1, 7}
	seed(MsgSnapChunk, SnapChunk{Stream: 7, Seq: 5, Part: SnapPart{
		Kind: PartSE, Name: "store", Store: 1, ChunkIndex: 0, Delta: true, Data: deltaChunk,
	}})
	seed(MsgSnapEnd, SnapEnd{Stream: 7, Chunks: 12, Bytes: 1 << 20, Epoch: 7})
	seed(MsgRestoreBegin, RestoreBegin{Stream: 8})
	seed(MsgRestoreBeginAck, RestoreBeginAck{Stream: 8})
	seed(MsgRestoreChunk, RestoreChunk{Stream: 8, Seq: 1, Part: SnapPart{
		Kind: PartEdge, Edge: 2, Inst: 3, Data: []byte("items"),
	}})
	seed(MsgRestoreChunk, RestoreChunk{Stream: 8, Seq: 2, Part: SnapPart{
		Kind: PartSE, Name: "store", Index: 1, Store: 1, ChunkIndex: 3, Delta: true, Data: deltaChunk,
	}})
	seed(MsgRestoreChunkAck, RestoreChunkAck{Stream: 8, Seq: 1})
	seed(MsgRestoreEnd, RestoreEnd{Stream: 8, Chunks: 2})
	seed(MsgRestoreEndAck, RestoreEndAck{Stream: 8})
	f.Add([]byte{MsgInject, VersionFlat, 0x01, 'p', 0xff})
	// Hostile item count: a RemoteEmit header claiming 2^30 items in a
	// five-byte body must be rejected, not allocated.
	f.Add([]byte{MsgRemoteEmit, VersionFlat, 0x01, 0x02, 0x80, 0x80, 0x80, 0x80, 0x04})
	// Hostile watermark count: a SnapChunk part header claiming 2^30
	// watermark pairs in a near-empty body must be rejected, not allocated.
	f.Add([]byte{MsgSnapChunk, VersionFlat,
		1, 0, 0, 0, 0, 0, 0, 0, // stream
		1, 0, 0, 0, 0, 0, 0, 0, // seq
		1, 0, 0, 1, 0, 0, 0, // kind, name len, index, store, chunk idx/of, delta
		0x80, 0x80, 0x80, 0x80, 0x04}) // watermark count 2^30

	decodeByType := func(msgType byte, p Payload) (any, error) {
		switch msgType {
		case MsgInject:
			var m Inject
			err := Unmarshal(p, &m)
			return m, err
		case MsgInjectAck:
			var m InjectAck
			err := Unmarshal(p, &m)
			return m, err
		case MsgCall:
			var m Call
			err := Unmarshal(p, &m)
			return m, err
		case MsgCallReply:
			var m CallReply
			err := Unmarshal(p, &m)
			return m, err
		case MsgHeartbeat:
			var m Heartbeat
			err := Unmarshal(p, &m)
			return m, err
		case MsgHeartbeatAck:
			var m HeartbeatAck
			err := Unmarshal(p, &m)
			return m, err
		case MsgRemoteEmit:
			var m RemoteEmit
			err := Unmarshal(p, &m)
			return m, err
		case MsgRemoteEmitAck:
			var m RemoteEmitAck
			err := Unmarshal(p, &m)
			return m, err
		case MsgSnapBegin:
			var m SnapBegin
			err := Unmarshal(p, &m)
			return m, err
		case MsgSnapBeginAck:
			var m SnapBeginAck
			err := Unmarshal(p, &m)
			return m, err
		case MsgSnapNext:
			var m SnapNext
			err := Unmarshal(p, &m)
			return m, err
		case MsgSnapChunk:
			var m SnapChunk
			err := Unmarshal(p, &m)
			return m, err
		case MsgSnapEnd:
			var m SnapEnd
			err := Unmarshal(p, &m)
			return m, err
		case MsgRestoreBegin:
			var m RestoreBegin
			err := Unmarshal(p, &m)
			return m, err
		case MsgRestoreBeginAck:
			var m RestoreBeginAck
			err := Unmarshal(p, &m)
			return m, err
		case MsgRestoreChunk:
			var m RestoreChunk
			err := Unmarshal(p, &m)
			return m, err
		case MsgRestoreChunkAck:
			var m RestoreChunkAck
			err := Unmarshal(p, &m)
			return m, err
		case MsgRestoreEnd:
			var m RestoreEnd
			err := Unmarshal(p, &m)
			return m, err
		case MsgRestoreEndAck:
			var m RestoreEndAck
			err := Unmarshal(p, &m)
			return m, err
		}
		return nil, nil
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msgType, payload, err := Decode(data)
		if err != nil || payload.Ver != VersionFlat {
			return
		}
		m1, err := decodeByType(msgType, payload)
		if err != nil || m1 == nil {
			return // malformed flat payloads are rejected, which is the contract
		}
		frame2, err := Encode(msgType, m1)
		if err != nil {
			t.Fatalf("accepted message %+v does not re-encode: %v", m1, err)
		}
		if frame2[1] != VersionFlat {
			t.Fatalf("re-encode of flat message fell back to version %d", frame2[1])
		}
		msgType2, payload2, err := Decode(frame2)
		if err != nil || msgType2 != msgType {
			t.Fatalf("re-encoded frame rejected: type %d err %v", msgType2, err)
		}
		m2, err := decodeByType(msgType, payload2)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(normalizeMsg(m1), normalizeMsg(m2)) {
			t.Fatalf("message changed across re-encode:\n  %#v\n  %#v", m1, m2)
		}
	})
}
