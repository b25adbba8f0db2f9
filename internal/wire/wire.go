// Package wire is the message codec of the distributed deployment mode.
// Every payload crossing a process boundary travels inside a framed
// envelope:
//
//	[0] message type byte (Msg* constants)
//	[1] format version (Version)
//	[2:] the message's flat layout (flatcodec.go)
//
// The envelope rides inside the cluster package's length-prefixed frames;
// this package is only concerned with what the frame bytes mean.
//
// Every message type has exactly one encoding: hand-rolled uvarint/fixed
// fields (internal/wire/flat) with no reflection, no per-frame type
// dictionary, maps in sorted key order, and every count checked against the
// remaining bytes before it sizes an allocation. A frame with any other
// version byte is rejected with a *VersionError before its payload is
// looked at.
//
// An item's value (Item.Value, CallReply.Value) has one codec too: the
// flat tag table, plus the application payload types that implement
// flat.Payload and register a decoder. No reflection reaches the wire; a
// value of any other type fails to encode at the sender.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/wire/flat"
)

// Version is the envelope's format version byte. Bump it on any
// incompatible layout change; Decode rejects every other value.
const Version byte = 2

// Typed decode errors. Decode and Unmarshal never panic on hostile input.
var (
	// ErrShortFrame: the frame ends before the two-byte envelope header.
	ErrShortFrame = errors.New("wire: frame too short for envelope header")
	// ErrUnknownType: the type byte names no registered message.
	ErrUnknownType = errors.New("wire: unknown message type")
	// ErrUnexpectedType: a reply carried a valid but different message type
	// than the protocol step expects.
	ErrUnexpectedType = errors.New("wire: unexpected message type")
	// ErrBadPayload: the payload does not decode into the target.
	ErrBadPayload = errors.New("wire: malformed payload")
	// ErrVersion matches any *VersionError via errors.Is.
	ErrVersion = errors.New("wire: protocol version mismatch")
)

// VersionError reports an envelope from an incompatible peer.
type VersionError struct {
	Got, Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version mismatch: got %d, want %d", e.Got, e.Want)
}

// Is makes errors.Is(err, ErrVersion) match.
func (e *VersionError) Is(target error) bool { return target == ErrVersion }

// Payload is an envelope's body, not yet parsed. Body may alias the decoded
// frame; see Unmarshal for the ownership contract.
type Payload struct {
	Body []byte
}

// Encode wraps a message struct in an envelope. v must be the struct that
// msgType names; any other pairing is an error here, at the sender. The
// result is a fresh allocation (one exact-size copy off a pooled encoder);
// use EncodeAppend to reuse a caller-owned buffer instead.
func Encode(msgType byte, v any) ([]byte, error) {
	e := flat.GetEncoder()
	defer flat.PutEncoder(e)
	if err := encodeFlat(e, msgType, v); err != nil {
		return nil, err
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// EncodeAppend appends the envelope for v to dst and returns the extended
// slice (steady-state 0 allocs once dst has capacity).
func EncodeAppend(dst []byte, msgType byte, v any) ([]byte, error) {
	var e flat.Encoder
	e.Reset(dst)
	if err := encodeFlat(&e, msgType, v); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Decode splits an envelope into its message type and payload, checking the
// header. The payload is not parsed; pass it to Unmarshal once the type byte
// has selected the target struct.
func Decode(frame []byte) (msgType byte, p Payload, err error) {
	if len(frame) < 2 {
		return 0, Payload{}, fmt.Errorf("%w: %d byte(s)", ErrShortFrame, len(frame))
	}
	if frame[1] != Version {
		return 0, Payload{}, &VersionError{Got: frame[1], Want: Version}
	}
	if _, ok := msgNames[frame[0]]; !ok {
		return 0, Payload{}, fmt.Errorf("%w: 0x%02x", ErrUnknownType, frame[0])
	}
	return frame[0], Payload{Body: frame[2:]}, nil
}

// Unmarshal decodes a payload (from Decode) into v, a pointer to a message
// struct. It decodes in borrow mode: []byte values in the result alias
// p.Body, so the frame must not be reused afterwards — the cluster
// transports allocate a fresh buffer per read, satisfying this by
// construction.
func Unmarshal(p Payload, v any) error {
	return decodeFlat(p.Body, v)
}

// Expect decodes a complete envelope that must carry the given message
// type — the reply-parsing path, where the protocol step fixes the type.
func Expect(frame []byte, want byte, v any) error {
	t, p, err := Decode(frame)
	if err != nil {
		return err
	}
	if t != want {
		return fmt.Errorf("%w: got %s, want %s", ErrUnexpectedType, MsgName(t), MsgName(want))
	}
	return Unmarshal(p, v)
}

// MsgName names a message type byte for error messages and logs.
func MsgName(t byte) string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("msg(0x%02x)", t)
}
