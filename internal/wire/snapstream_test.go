package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/state"
)

// roundTripFlat encodes a message and decodes it back into out.
func roundTripFlat(t *testing.T, msgType byte, in, out any) {
	t.Helper()
	frame, err := Encode(msgType, in)
	if err != nil {
		t.Fatalf("%s: encode: %v", MsgName(msgType), err)
	}
	if err := Expect(frame, msgType, out); err != nil {
		t.Fatalf("%s: decode: %v", MsgName(msgType), err)
	}
}

// TestSnapStreamRoundTrips covers every streaming snapshot message through
// the envelope codec.
func TestSnapStreamRoundTrips(t *testing.T) {
	part := SnapPart{
		Kind:       PartSE,
		Name:       "store",
		Index:      3,
		Store:      state.TypeKVMap,
		ChunkIndex: 2,
		ChunkOf:    5,
		Delta:      true,
		Data:       []byte("chunk-bytes"),
	}
	tePart := SnapPart{
		Kind:       PartTE,
		Name:       "put",
		Index:      1,
		Watermarks: map[uint64]uint64{1: 9, ^uint64(0): 3, 7: 7},
		OutSeq:     42,
	}

	var sb SnapBegin
	roundTripFlat(t, MsgSnapBegin, SnapBegin{Stream: 9, MaxBytes: 4096, Have: 8}, &sb)
	if sb.Stream != 9 || sb.MaxBytes != 4096 || sb.Have != 8 {
		t.Fatalf("SnapBegin round trip: %+v", sb)
	}
	var sba SnapBeginAck
	roundTripFlat(t, MsgSnapBeginAck, SnapBeginAck{Stream: 9, Epoch: 10}, &sba)
	if sba.Stream != 9 || sba.Epoch != 10 {
		t.Fatalf("SnapBeginAck round trip: %+v", sba)
	}
	var sn SnapNext
	roundTripFlat(t, MsgSnapNext, SnapNext{Stream: 9, Seq: 17}, &sn)
	if sn.Stream != 9 || sn.Seq != 17 {
		t.Fatalf("SnapNext round trip: %+v", sn)
	}
	for _, p := range []SnapPart{part, tePart} {
		var sc SnapChunk
		roundTripFlat(t, MsgSnapChunk, SnapChunk{Stream: 9, Seq: 17, Part: p}, &sc)
		if sc.Stream != 9 || sc.Seq != 17 || !reflect.DeepEqual(normalizePart(sc.Part), normalizePart(p)) {
			t.Fatalf("SnapChunk round trip:\n got %+v\nwant %+v", sc.Part, p)
		}
	}
	var se SnapEnd
	roundTripFlat(t, MsgSnapEnd, SnapEnd{Stream: 9, Chunks: 40, Bytes: 1 << 30, Epoch: 10}, &se)
	if se.Stream != 9 || se.Chunks != 40 || se.Bytes != 1<<30 || se.Epoch != 10 {
		t.Fatalf("SnapEnd round trip: %+v", se)
	}
	var rb RestoreBegin
	roundTripFlat(t, MsgRestoreBegin, RestoreBegin{Stream: 5}, &rb)
	if rb.Stream != 5 {
		t.Fatalf("RestoreBegin round trip: %+v", rb)
	}
	var rba RestoreBeginAck
	roundTripFlat(t, MsgRestoreBeginAck, RestoreBeginAck{Stream: 5}, &rba)
	if rba.Stream != 5 {
		t.Fatalf("RestoreBeginAck round trip: %+v", rba)
	}
	var rc RestoreChunk
	roundTripFlat(t, MsgRestoreChunk, RestoreChunk{Stream: 5, Seq: 2, Part: part}, &rc)
	if rc.Stream != 5 || rc.Seq != 2 || !reflect.DeepEqual(normalizePart(rc.Part), normalizePart(part)) {
		t.Fatalf("RestoreChunk round trip: %+v", rc)
	}
	var rca RestoreChunkAck
	roundTripFlat(t, MsgRestoreChunkAck, RestoreChunkAck{Stream: 5, Seq: 2}, &rca)
	if rca.Stream != 5 || rca.Seq != 2 {
		t.Fatalf("RestoreChunkAck round trip: %+v", rca)
	}
	var re RestoreEnd
	roundTripFlat(t, MsgRestoreEnd, RestoreEnd{Stream: 5, Chunks: 3}, &re)
	if re.Stream != 5 || re.Chunks != 3 {
		t.Fatalf("RestoreEnd round trip: %+v", re)
	}
	var rea RestoreEndAck
	roundTripFlat(t, MsgRestoreEndAck, RestoreEndAck{Stream: 5}, &rea)
	if rea.Stream != 5 {
		t.Fatalf("RestoreEndAck round trip: %+v", rea)
	}
}

// normalizePart maps empty-but-allocated Data/Watermarks to nil so encoded
// and source parts compare structurally.
func normalizePart(p SnapPart) SnapPart {
	if len(p.Data) == 0 {
		p.Data = nil
	}
	if len(p.Watermarks) == 0 {
		p.Watermarks = nil
	}
	return p
}

// TestSnapPartDeterministicEncoding: identical parts must encode to
// identical bytes regardless of map iteration order — the worker's
// retry cache compares and re-serves frames byte-for-byte.
func TestSnapPartDeterministicEncoding(t *testing.T) {
	p := SnapPart{Kind: PartTE, Name: "t", Watermarks: map[uint64]uint64{}}
	for i := uint64(0); i < 64; i++ {
		p.Watermarks[i*2654435761] = i
	}
	first := EncodeSnapPart(&p)
	for i := 0; i < 8; i++ {
		if got := EncodeSnapPart(&p); !bytes.Equal(got, first) {
			t.Fatal("EncodeSnapPart is not deterministic across calls")
		}
	}
}

// TestSnapPartHostileDecode: malformed part payloads must error, not
// allocate or panic.
func TestSnapPartHostileDecode(t *testing.T) {
	good := EncodeSnapPart(&SnapPart{Kind: PartSE, Name: "s", Data: []byte("d")})
	if _, err := DecodeSnapPart(good); err != nil {
		t.Fatalf("control part rejected: %v", err)
	}
	// Trailing garbage.
	if _, err := DecodeSnapPart(append(append([]byte(nil), good...), 0xff)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeSnapPart(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Hostile watermark count: header claims 2^30 pairs, body is empty.
	hostile := []byte{
		PartTE, 1, 't', 0, 0, 0, 0, 0, // kind, name, index, store, idx, of, delta
		0x80, 0x80, 0x80, 0x80, 0x04, // watermark count 2^30
	}
	_, err := DecodeSnapPart(hostile)
	if err == nil {
		t.Fatal("hostile watermark count accepted")
	}
	if !errors.Is(err, ErrBadPayload) {
		t.Fatalf("hostile watermark count error = %v, want ErrBadPayload", err)
	}
}
