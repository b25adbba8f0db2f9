package wire

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire/flat"
)

// This file binds the flat codec to the data-plane message types. A type
// is on the fast path when it dominates steady-state traffic: every
// injected item, every request/reply call and every liveness probe crosses
// here, while Deploy/Snapshot/Stats stay on gob (rare, structurally rich,
// not worth a hand-rolled layout).
//
// Layouts (after the two-byte envelope header):
//
//	Inject:        str task, uvarint count, count× item
//	InjectAck:     varint accepted
//	Call:          str task, varint timeoutMs, item
//	CallReply:     value
//	Heartbeat:     fixed64 seq
//	HeartbeatAck:  fixed64 seq, fixed64 queued
//	RemoteEmit:    uvarint edge, uvarint inst, uvarint count, count× item
//	RemoteEmitAck: varint accepted
//	item:          uvarint origin/seq/key/reqID, varint parts, value
//
// The streaming snapshot transfer (wire/snapstream.go) is flat end to end
// — state bytes are the other large payload besides items:
//
//	SnapBegin:       fixed64 stream, uvarint chunks, uvarint maxBytes,
//	                 uvarint have, uvarint n, n× (str name, uvarint index)
//	SnapBeginAck:    fixed64 stream, uvarint epoch
//	SnapNext:        fixed64 stream, fixed64 seq
//	SnapChunk:       fixed64 stream, fixed64 seq, part
//	SnapEnd:         fixed64 stream, uvarint chunks, uvarint bytes,
//	                 uvarint epoch
//	RestoreBegin:    fixed64 stream
//	RestoreBeginAck: fixed64 stream
//	RestoreChunk:    fixed64 stream, fixed64 seq, part
//	RestoreChunkAck: fixed64 stream, fixed64 seq
//	RestoreEnd:      fixed64 stream, uvarint chunks
//	RestoreEndAck:   fixed64 stream
//	part:            byte kind, str name, uvarint index, byte store,
//	                 uvarint chunkIndex/chunkOf, byte delta,
//	                 uvarint wmCount, wmCount× (uvarint origin, uvarint seq),
//	                 uvarint outSeq, uvarint edge/inst, blob data
//
// Heartbeats use fixed-width seqs so the frame size is constant: the
// coordinator pre-encodes the frame once and patches the seq bytes in
// place every beat.

// flatCapable reports whether this peer flat-encodes the message type — and
// therefore whether it can parse a VersionFlat envelope carrying it.
func flatCapable(msgType byte) bool {
	switch msgType {
	case MsgInject, MsgInjectAck, MsgCall, MsgCallReply, MsgHeartbeat, MsgHeartbeatAck,
		MsgRemoteEmit, MsgRemoteEmitAck:
		return true
	case MsgSnapBegin, MsgSnapBeginAck, MsgSnapNext, MsgSnapChunk, MsgSnapEnd,
		MsgRestoreBegin, MsgRestoreBeginAck, MsgRestoreChunk, MsgRestoreChunkAck,
		MsgRestoreEnd, MsgRestoreEndAck:
		return true
	}
	return false
}

// encodeFlat appends the full envelope (header + flat payload) for v when
// its concrete type matches a fast-path message type; ok=false defers to
// gob. A mismatched msgType/value pair falls through too — the gob path's
// validation owns that rejection.
func encodeFlat(e *flat.Encoder, msgType byte, v any) (ok bool, err error) {
	switch m := v.(type) {
	case Inject:
		if msgType != MsgInject {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Str(m.Task)
		e.Uvarint(uint64(len(m.Items)))
		for i := range m.Items {
			if err := e.Item(m.Items[i]); err != nil {
				return false, err
			}
		}
	case InjectAck:
		if msgType != MsgInjectAck {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Varint(int64(m.Accepted))
	case Call:
		if msgType != MsgCall {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Str(m.Task)
		e.Varint(m.TimeoutMs)
		if err := e.Item(m.Item); err != nil {
			return false, err
		}
	case CallReply:
		if msgType != MsgCallReply {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		if err := e.Value(m.Value); err != nil {
			return false, err
		}
	case Heartbeat:
		if msgType != MsgHeartbeat {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Seq)
	case HeartbeatAck:
		if msgType != MsgHeartbeatAck {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Seq)
		e.Fixed64(uint64(m.Queued))
	case RemoteEmit:
		if msgType != MsgRemoteEmit {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Uvarint(uint64(m.Edge))
		e.Uvarint(uint64(m.Inst))
		e.Uvarint(uint64(len(m.Items)))
		for i := range m.Items {
			if err := e.Item(m.Items[i]); err != nil {
				return false, err
			}
		}
	case RemoteEmitAck:
		if msgType != MsgRemoteEmitAck {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Varint(int64(m.Accepted))
	case SnapBegin:
		if msgType != MsgSnapBegin {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Uvarint(uint64(m.Chunks))
		e.Uvarint(uint64(m.MaxBytes))
		e.Uvarint(m.Have)
		e.Uvarint(uint64(len(m.Rebase)))
		for _, r := range m.Rebase {
			e.Str(r.Name)
			e.Uvarint(uint64(r.Index))
		}
	case SnapBeginAck:
		if msgType != MsgSnapBeginAck {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Uvarint(m.Epoch)
	case SnapNext:
		if msgType != MsgSnapNext {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
	case SnapChunk:
		if msgType != MsgSnapChunk {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
		encodePartFields(e, &m.Part)
	case SnapEnd:
		if msgType != MsgSnapEnd {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Uvarint(m.Chunks)
		e.Uvarint(m.Bytes)
		e.Uvarint(m.Epoch)
	case RestoreBegin:
		if msgType != MsgRestoreBegin {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
	case RestoreBeginAck:
		if msgType != MsgRestoreBeginAck {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
	case RestoreChunk:
		if msgType != MsgRestoreChunk {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
		encodePartFields(e, &m.Part)
	case RestoreChunkAck:
		if msgType != MsgRestoreChunkAck {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
	case RestoreEnd:
		if msgType != MsgRestoreEnd {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
		e.Uvarint(m.Chunks)
	case RestoreEndAck:
		if msgType != MsgRestoreEndAck {
			return false, nil
		}
		e.Byte(msgType)
		e.Byte(VersionFlat)
		e.Fixed64(m.Stream)
	default:
		return false, nil
	}
	return true, nil
}

// decodeFlat parses a flat payload body into v; ok=false means v's type has
// no flat layout (the payload came from an incompatible peer — Decode
// normally catches this earlier via flatCapable). Trailing bytes after a
// complete payload are malformed: they would mean a layout disagreement.
//
//sdg:ignore borrowcopy -- Unmarshal's documented aliasing contract: decoded Items/Value alias the caller's buffer, and every handler consumes the message before the pooled frame is reused
func decodeFlat(body []byte, v any) (ok bool, err error) {
	d := flat.NewBorrowDecoder(body)
	switch m := v.(type) {
	case *Inject:
		m.Task = d.Str()
		n := d.Uvarint()
		if d.Err() == nil && n > uint64(d.Remaining()) {
			return true, fmt.Errorf("%w: item count %d exceeds payload", ErrBadPayload, n)
		}
		if d.Err() == nil {
			m.Items = make([]core.Item, 0, n)
			for i := uint64(0); i < n; i++ {
				m.Items = append(m.Items, d.Item())
				if d.Err() != nil {
					break
				}
			}
		}
	case *InjectAck:
		m.Accepted = int(d.Varint())
	case *Call:
		m.Task = d.Str()
		m.TimeoutMs = d.Varint()
		m.Item = d.Item()
	case *CallReply:
		m.Value = d.Value()
	case *Heartbeat:
		m.Seq = d.Fixed64()
	case *HeartbeatAck:
		m.Seq = d.Fixed64()
		m.Queued = int64(d.Fixed64())
	case *RemoteEmit:
		m.Edge = int(d.Uvarint())
		m.Inst = int(d.Uvarint())
		n := d.Uvarint()
		if d.Err() == nil && n > uint64(d.Remaining()) {
			return true, fmt.Errorf("%w: item count %d exceeds payload", ErrBadPayload, n)
		}
		if d.Err() == nil {
			m.Items = make([]core.Item, 0, n)
			for i := uint64(0); i < n; i++ {
				m.Items = append(m.Items, d.Item())
				if d.Err() != nil {
					break
				}
			}
		}
	case *RemoteEmitAck:
		m.Accepted = int(d.Varint())
	case *SnapBegin:
		m.Stream = d.Fixed64()
		m.Chunks = int(d.Uvarint())
		m.MaxBytes = int(d.Uvarint())
		m.Have = d.Uvarint()
		n := d.Uvarint()
		// Every entry costs at least two bytes (name length + index).
		if d.Err() == nil && n > uint64(d.Remaining())/2 {
			return true, fmt.Errorf("%w: rebase count %d exceeds payload", ErrBadPayload, n)
		}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			m.Rebase = append(m.Rebase, SEInst{Name: d.Str(), Index: int(d.Uvarint())})
		}
	case *SnapBeginAck:
		m.Stream = d.Fixed64()
		m.Epoch = d.Uvarint()
	case *SnapNext:
		m.Stream = d.Fixed64()
		m.Seq = d.Fixed64()
	case *SnapChunk:
		m.Stream = d.Fixed64()
		m.Seq = d.Fixed64()
		part, err := decodePartFields(d)
		if err != nil {
			return true, err
		}
		m.Part = part
	case *SnapEnd:
		m.Stream = d.Fixed64()
		m.Chunks = d.Uvarint()
		m.Bytes = d.Uvarint()
		m.Epoch = d.Uvarint()
	case *RestoreBegin:
		m.Stream = d.Fixed64()
	case *RestoreBeginAck:
		m.Stream = d.Fixed64()
	case *RestoreChunk:
		m.Stream = d.Fixed64()
		m.Seq = d.Fixed64()
		part, err := decodePartFields(d)
		if err != nil {
			return true, err
		}
		m.Part = part
	case *RestoreChunkAck:
		m.Stream = d.Fixed64()
		m.Seq = d.Fixed64()
	case *RestoreEnd:
		m.Stream = d.Fixed64()
		m.Chunks = d.Uvarint()
	case *RestoreEndAck:
		m.Stream = d.Fixed64()
	default:
		return false, nil
	}
	if err := d.Err(); err != nil {
		return true, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if !d.Done() {
		return true, fmt.Errorf("%w: %d trailing byte(s)", ErrBadPayload, d.Remaining())
	}
	return true, nil
}
