package wire

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestEnvelopeRoundTrip pins the codec on a data-plane message and an
// empty-bodied one; TestEveryMessageHasOneLayout covers the whole set.
func TestEnvelopeRoundTrip(t *testing.T) {
	t.Run("inject", func(t *testing.T) {
		in := Inject{
			Task: "put",
			Items: []core.Item{
				{Origin: ^uint64(0), Seq: 1, Key: 42, Value: []byte("v1")},
				{Origin: ^uint64(0), Seq: 2, Key: 43, Value: nil},
			},
		}
		frame, err := Encode(MsgInject, in)
		if err != nil {
			t.Fatal(err)
		}
		var out Inject
		if err := Expect(frame, MsgInject, &out); err != nil {
			t.Fatal(err)
		}
		if out.Task != "put" || len(out.Items) != 2 {
			t.Fatalf("round trip lost data: %+v", out)
		}
		if string(out.Items[0].Value.([]byte)) != "v1" || out.Items[1].Value != nil {
			t.Fatalf("payload values corrupted: %+v", out.Items)
		}
		if out.Items[0].Seq != 1 || out.Items[0].Origin != ^uint64(0) {
			t.Fatalf("timestamps corrupted: %+v", out.Items[0])
		}
	})
	t.Run("empty structs", func(t *testing.T) {
		frame, err := Encode(MsgStop, Stop{})
		if err != nil {
			t.Fatal(err)
		}
		var out Stop
		if err := Expect(frame, MsgStop, &out); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeMalformed tables the hostile-envelope space: truncated headers,
// version mismatches, unknown types, and garbage payloads must all return
// the documented typed errors, never panic or misparse.
func TestDecodeMalformed(t *testing.T) {
	good, err := Encode(MsgHeartbeat, Heartbeat{Seq: 9})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrShortFrame},
		{"one byte", []byte{MsgHeartbeat}, ErrShortFrame},
		{"version zero", []byte{MsgHeartbeat, 0x00, 0x01}, ErrVersion},
		{"version future", []byte{MsgHeartbeat, Version + 1, 0x01}, ErrVersion},
		{"unknown type", []byte{0xee, Version, 0x01}, ErrUnknownType},
		{"zero type", []byte{0x00, Version}, ErrUnknownType},
		// Version 1 was the gob envelope; no type accepts it any more.
		{"gob envelope", []byte{MsgDeploy, 0x01, 0x01}, ErrVersion},
		// The version is checked before the type byte is looked up.
		{"bad version and unknown type", []byte{0xee, 0x01}, ErrVersion},
		{"retired type 0x09", []byte{0x09, Version}, ErrUnknownType},
		{"retired type 0x0c", []byte{0x0c, Version, 0x01}, ErrUnknownType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(tc.frame)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode(%x) error = %v, want %v", tc.frame, err, tc.want)
			}
		})
	}

	t.Run("version error detail", func(t *testing.T) {
		_, _, err := Decode([]byte{MsgHeartbeat, Version + 3, 0x01})
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != Version+3 || ve.Want != Version {
			t.Fatalf("error = %v, want *VersionError with got/want", err)
		}
	})
	t.Run("garbage payload", func(t *testing.T) {
		frame := []byte{MsgHeartbeat, Version, 0xde, 0xad, 0xbe, 0xef}
		var hb Heartbeat
		if err := Expect(frame, MsgHeartbeat, &hb); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("garbage payload: got %v, want ErrBadPayload", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		var hb Heartbeat
		if err := Expect(good[:len(good)-2], MsgHeartbeat, &hb); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("truncated payload: got %v, want ErrBadPayload", err)
		}
	})
	t.Run("wrong message type", func(t *testing.T) {
		var s Stats
		if err := Expect(good, MsgStats, &s); !errors.Is(err, ErrUnexpectedType) {
			t.Fatalf("type mismatch: got %v, want ErrUnexpectedType", err)
		}
	})
	t.Run("body on an empty message", func(t *testing.T) {
		var s Stop
		if err := Expect([]byte{MsgStop, Version, 0x00}, MsgStop, &s); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("non-empty Stop body: got %v, want ErrBadPayload", err)
		}
	})
	t.Run("target is not a message", func(t *testing.T) {
		var n int
		if err := Expect(good, MsgHeartbeat, &n); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("decode into *int: got %v, want ErrBadPayload", err)
		}
	})
}

// TestEncodeRejectsUnencodableTypes: the value union is closed, so a type
// with no codec fails loudly at the sender, including when it hides behind
// an interface field.
func TestEncodeRejectsUnencodableTypes(t *testing.T) {
	type sneaky struct {
		Visible int
		hidden  int //nolint:unused // a field no codec could see
	}
	if _, err := Encode(MsgCall, sneaky{Visible: 1}); err == nil {
		t.Fatal("struct with unexported field encoded without error")
	}
	type nested struct {
		Inner sneaky
	}
	if _, err := Encode(MsgCall, nested{}); err == nil {
		t.Fatal("nested unexported field encoded without error")
	}
	type chans struct {
		C chan int
	}
	if _, err := Encode(MsgCall, chans{}); err == nil {
		t.Fatal("channel field encoded without error")
	}
	// The dynamic path: a clean envelope type carrying a dirty payload
	// through an interface field.
	bad := Call{Task: "put", Item: core.Item{Value: sneaky{Visible: 2}}}
	if _, err := Encode(MsgCall, bad); err == nil {
		t.Fatal("unexported field behind interface encoded without error")
	}
	// A rejection must not poison the healthy path.
	if _, err := Encode(MsgCall, Call{Task: "put", Item: core.Item{Value: []byte("ok")}}); err != nil {
		t.Fatalf("healthy call after rejections: %v", err)
	}
}

// TestEncodeUnknownType: the sender-side registry check.
func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(0xee, Heartbeat{}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("got %v, want ErrUnknownType", err)
	}
}

// TestEncodeRejectsMismatchedPair: a value that is not the struct the type
// byte names fails at the sender, for Encode and EncodeAppend alike — not
// as a malformed payload at whoever receives it.
func TestEncodeRejectsMismatchedPair(t *testing.T) {
	if _, err := Encode(MsgInject, InjectAck{}); err == nil {
		t.Fatal("Encode(MsgInject, InjectAck{}) succeeded")
	}
	if _, err := EncodeAppend(nil, MsgStop, StopAck{}); err == nil {
		t.Fatal("EncodeAppend(MsgStop, StopAck{}) succeeded")
	}
	if _, err := Encode(MsgHeartbeat, &Heartbeat{}); err == nil {
		t.Fatal("Encode of a pointer to the message struct succeeded")
	}
}

// FuzzDecode throws arbitrary bytes at the envelope parser: it must return
// a typed error or a (type, payload) pair consistent with the input —
// never panic.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{MsgInject, Version})
	f.Add([]byte{MsgInject, Version, 0xff, 0x00})
	f.Add([]byte{0xee, Version, 0x01})
	f.Add([]byte{MsgHeartbeat, 0x00, 0x01})
	if frame, err := Encode(MsgHeartbeat, Heartbeat{Seq: 3}); err == nil {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgType, payload, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrUnknownType) {
				t.Fatalf("Decode(%x): untyped error %v", data, err)
			}
			return
		}
		if _, ok := msgNames[msgType]; !ok {
			t.Fatalf("Decode accepted unknown type 0x%02x", msgType)
		}
		if len(payload.Body) != len(data)-2 {
			t.Fatalf("payload length %d, want %d", len(payload.Body), len(data)-2)
		}
		// Unmarshal into a generic target must error or succeed, not panic.
		var hb Heartbeat
		_ = Unmarshal(payload, &hb)
	})
}
