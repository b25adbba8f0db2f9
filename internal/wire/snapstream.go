package wire

import (
	"repro/internal/state"
	"repro/internal/wire/flat"
)

// This file defines the snapshot transfer protocol. A worker's state never
// crosses the wire as one frame: it is split into self-describing
// SnapParts, each well under the frame cap, and pulled (SnapBegin/SnapNext
// -> SnapChunk*/SnapEnd) or pushed (RestoreBegin/RestoreChunk*/RestoreEnd)
// one part per frame with a per-stream id and a dense chunk seq for
// idempotent retry. Every pull is one epoch of the worker's checkpoint
// chain: SnapBegin says which epoch the coordinator last retained (Have),
// and each SE instance's parts are either a base (Delta false) or the keys
// changed since the retained epoch (Delta true).

// SnapPart kinds. Each part carries exactly one unit of a worker's
// snapshot; the Kind decides which fields are meaningful.
const (
	// PartSE: one state-store checkpoint chunk of SE Name/Index
	// (Store/ChunkIndex/ChunkOf/Delta/Data mirror state.Chunk).
	PartSE byte = 1
	// PartTE: TE instance Name/Index recovery metadata
	// (Watermarks, OutSeq).
	PartTE byte = 2
	// PartTEBuf: a slice of TE instance Name/Index's local backlog on
	// out-edge Edge — the items a destination on the same worker had not
	// processed at the cut, which RestoreEnd re-delivers — flat-encoded
	// with EncodeItems in Data. A long backlog splits into several parts;
	// order within one (Name, Index, Edge) follows stream order.
	PartTEBuf byte = 3
	// PartEdge: a slice of the cross-worker send log toward global
	// instance Inst over graph edge Edge, EncodeItems-encoded in Data.
	PartEdge byte = 4
)

// SnapPart is one streamed unit of a worker snapshot. The flat layout
// encodes every field unconditionally so the codec stays branch-free; the
// unused fields of a kind are zero.
type SnapPart struct {
	Kind       byte
	Name       string // SE or TE name (PartSE, PartTE, PartTEBuf)
	Index      int    // SE or TE instance index
	Store      state.StoreType
	ChunkIndex int
	ChunkOf    int
	Delta      bool
	Watermarks map[uint64]uint64
	OutSeq     uint64
	Edge       int
	Inst       int
	Data       []byte
}

// SnapBegin opens a snapshot pull stream on the worker. The worker cuts a
// consistent snapshot (pausing processing only for the cut, not the
// transfer) and serves it chunk by chunk via SnapNext.
type SnapBegin struct {
	Stream uint64
	// MaxBytes bounds the encoded payload of each served part
	// (0 = worker default). One oversized entry may still exceed it;
	// the bound is per-part best effort, never per-frame exact.
	MaxBytes int
	// Have is the last epoch of this worker the coordinator durably
	// retained (0 = none). It settles the previous pull: the worker commits
	// that epoch's changed-key cut when Have names it and folds the cut
	// back otherwise, so a pull that died after its last chunk loses
	// nothing.
	Have uint64
}

// SnapBeginAck confirms the stream is open and the cut is taken. Epoch
// numbers the epoch being served, above Have and every epoch this worker
// served before.
type SnapBeginAck struct {
	Stream uint64
	Epoch  uint64
}

// SnapNext requests chunk Seq (1-based, dense) of an open stream. Repeating
// the last Seq re-serves the identical frame, so a lost reply is retried
// without advancing the stream.
type SnapNext struct {
	Stream uint64
	Seq    uint64
}

// SnapChunk answers SnapNext with one part.
type SnapChunk struct {
	Stream uint64
	Seq    uint64
	Part   SnapPart
}

// SnapEnd answers the SnapNext past the last part: the stream is complete
// and closed. Chunks and Bytes let the puller verify it saw everything;
// Epoch repeats SnapBeginAck's.
type SnapEnd struct {
	Stream uint64
	Chunks uint64
	Bytes  uint64
	Epoch  uint64
}

// RestoreBegin opens a restore push stream on a freshly deployed worker.
type RestoreBegin struct {
	Stream uint64
}

// RestoreBeginAck confirms the worker is ready for chunks.
type RestoreBeginAck struct {
	Stream uint64
}

// RestoreChunk delivers part Seq (1-based, dense). Re-sending the most
// recently applied Seq after a lost ack is acked again without re-applying
// (replay-log appends are not idempotent); any other gap aborts the stream.
type RestoreChunk struct {
	Stream uint64
	Seq    uint64
	Part   SnapPart
}

// RestoreChunkAck confirms part Seq was applied.
type RestoreChunkAck struct {
	Stream uint64
	Seq    uint64
}

// RestoreEnd closes the push stream; Chunks must match the applied count or
// the worker rejects the restore as truncated.
type RestoreEnd struct {
	Stream uint64
	Chunks uint64
}

// RestoreEndAck confirms the restore is complete and the worker unsealed.
type RestoreEndAck struct {
	Stream uint64
}

// encodePartFields appends the flat layout of a part (see SnapPart).
func encodePartFields(e *flat.Encoder, p *SnapPart) {
	e.Byte(p.Kind)
	e.Str(p.Name)
	e.Uvarint(uint64(p.Index))
	e.Byte(byte(p.Store))
	e.Uvarint(uint64(p.ChunkIndex))
	e.Uvarint(uint64(p.ChunkOf))
	encodeBool(e, p.Delta)
	encodeWatermarks(e, p.Watermarks)
	e.Uvarint(p.OutSeq)
	e.Uvarint(uint64(p.Edge))
	e.Uvarint(uint64(p.Inst))
	e.Blob(p.Data)
}

// decodePartFields parses the flat layout of a part.
func decodePartFields(d *flat.Decoder) SnapPart {
	var p SnapPart
	p.Kind = d.Byte()
	p.Name = d.Str()
	p.Index = int(d.Uvarint())
	p.Store = state.StoreType(d.Byte())
	p.ChunkIndex = int(d.Uvarint())
	p.ChunkOf = int(d.Uvarint())
	p.Delta = d.Byte() != 0
	p.Watermarks = decodeWatermarks(d)
	p.OutSeq = d.Uvarint()
	p.Edge = int(d.Uvarint())
	p.Inst = int(d.Uvarint())
	p.Data = d.Blob()
	return p
}

// EncodeSnapPart flat-encodes one part on its own (no envelope) — the
// coordinator's retention format for pulled chunks. The returned slice is
// freshly allocated and owned by the caller.
func EncodeSnapPart(p *SnapPart) []byte {
	e := flat.GetEncoder()
	defer flat.PutEncoder(e)
	EncodeSnapPartTo(e, p)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// EncodeSnapPartTo appends p's EncodeSnapPart payload to e.
func EncodeSnapPartTo(e *flat.Encoder, p *SnapPart) { encodePartFields(e, p) }

// DecodeSnapPart parses an EncodeSnapPart payload. The part copies its
// bytes out of b, so b may be reused afterwards.
func DecodeSnapPart(b []byte) (SnapPart, error) {
	d := flat.NewDecoder(b)
	p := decodePartFields(d)
	return p, finish(d)
}
