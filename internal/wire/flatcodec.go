package wire

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/wire/flat"
)

// This file holds the one layout of every message type. Layouts (after the
// two-byte envelope header; an int is a uvarint unless marked varint, a map
// is a uvarint count then its entries in ascending key order, a bool is one
// byte):
//
//	Deploy:          str graph, varint queueLen/overflowLen/batchSize,
//	                 uvarint worker/workers,
//	                 map teShards, map seShards (str name, shard),
//	                 uvarint n, n× str peer, bool awaitRestore
//	DeployAck:       str graph, uvarint tes, uvarint ses
//	Inject:          str task, items
//	InjectAck:       varint accepted
//	Call:            str task, varint timeoutMs, item
//	CallReply:       value
//	CallTimeout:     (empty)
//	Heartbeat:       fixed64 seq
//	HeartbeatAck:    fixed64 seq, fixed64 queued
//	DumpReq:         str se
//	Dump:            uvarint n, n× (uvarint key, blob value)
//	StatsReq:        (empty)
//	Stats:           map processed (str task, varint n),
//	                 map watermarks (str task, watermarks)
//	DrainReq:        varint timeoutMs
//	DrainAck:        bool quiesced, varint processed
//	Stop, StopAck:   (empty)
//	RemoteEmit:      uvarint edge, uvarint inst, items
//	RemoteEmitAck:   varint accepted
//	Peers:           uvarint worker, str addr
//	PeersAck:        (empty)
//	EdgeTrim:        uvarint n, n× (uvarint edge, uvarint inst, watermarks),
//	                 uvarint n, n× (str te, watermarks)
//	EdgeTrimAck:     (empty)
//	SnapBegin:       fixed64 stream, uvarint maxBytes, uvarint have,
//	                 uvarint n, n× (str name, uvarint index)
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
//
//	items:           uvarint count, count× item
//	item:            uvarint origin/seq/key/reqID, varint parts, value
//	shard:           uvarint first, uvarint count, uvarint total
//	watermarks:      map (uvarint origin, uvarint seq)
//	part:            byte kind, str name, uvarint index, byte store,
//	                 uvarint chunkIndex/chunkOf, bool delta, watermarks,
//	                 uvarint outSeq, uvarint edge/inst, blob data
//
// Heartbeats use fixed-width seqs so the frame size is constant: the
// coordinator pre-encodes the frame once and patches the seq bytes in
// place every beat.
//
// Maps encode in sorted key order so identical messages encode to identical
// bytes (retry caches and tests compare frames byte-for-byte). Every count
// is checked against the remaining bytes before it sizes an allocation
// (flat.Decoder.Count).

// encodeFlat appends the envelope (header + layout) for v, which must be
// the struct msgType names.
func encodeFlat(e *flat.Encoder, msgType byte, v any) error {
	if _, ok := msgNames[msgType]; !ok {
		return fmt.Errorf("%w: 0x%02x", ErrUnknownType, msgType)
	}
	e.Byte(msgType)
	e.Byte(Version)
	var is byte // the message type v's struct belongs to
	var err error
	switch m := v.(type) {
	case Deploy:
		is = MsgDeploy
		e.Str(m.Graph)
		e.Varint(int64(m.QueueLen))
		e.Varint(int64(m.OverflowLen))
		e.Varint(int64(m.BatchSize))
		e.Uvarint(uint64(m.Worker))
		e.Uvarint(uint64(m.Workers))
		encodeShards(e, m.TEShards)
		encodeShards(e, m.SEShards)
		e.Uvarint(uint64(len(m.Peers)))
		for _, p := range m.Peers {
			e.Str(p)
		}
		encodeBool(e, m.AwaitRestore)
	case DeployAck:
		is = MsgDeployAck
		e.Str(m.Graph)
		e.Uvarint(uint64(m.TEs))
		e.Uvarint(uint64(m.SEs))
	case Inject:
		is = MsgInject
		e.Str(m.Task)
		err = encodeItems(e, m.Items)
	case InjectAck:
		is = MsgInjectAck
		e.Varint(int64(m.Accepted))
	case Call:
		is = MsgCall
		e.Str(m.Task)
		e.Varint(m.TimeoutMs)
		err = e.Item(m.Item)
	case CallReply:
		is = MsgCallReply
		err = e.Value(m.Value)
	case CallTimeout:
		is = MsgCallTimeout
	case Heartbeat:
		is = MsgHeartbeat
		e.Fixed64(m.Seq)
	case HeartbeatAck:
		is = MsgHeartbeatAck
		e.Fixed64(m.Seq)
		e.Fixed64(uint64(m.Queued))
	case DumpReq:
		is = MsgDumpReq
		e.Str(m.SE)
	case Dump:
		is = MsgDump
		e.Uvarint(uint64(len(m.Entries)))
		for _, kv := range m.Entries {
			e.Uvarint(kv.Key)
			e.Blob(kv.Value)
		}
	case StatsReq:
		is = MsgStatsReq
	case Stats:
		is = MsgStats
		e.Uvarint(uint64(len(m.Processed)))
		for _, task := range slices.Sorted(maps.Keys(m.Processed)) {
			e.Str(task)
			e.Varint(m.Processed[task])
		}
		e.Uvarint(uint64(len(m.Watermarks)))
		for _, task := range slices.Sorted(maps.Keys(m.Watermarks)) {
			e.Str(task)
			encodeWatermarks(e, m.Watermarks[task])
		}
	case DrainReq:
		is = MsgDrainReq
		e.Varint(m.TimeoutMs)
	case DrainAck:
		is = MsgDrainAck
		encodeBool(e, m.Quiesced)
		e.Varint(m.Processed)
	case Stop:
		is = MsgStop
	case StopAck:
		is = MsgStopAck
	case RemoteEmit:
		is = MsgRemoteEmit
		e.Uvarint(uint64(m.Edge))
		e.Uvarint(uint64(m.Inst))
		err = encodeItems(e, m.Items)
	case RemoteEmitAck:
		is = MsgRemoteEmitAck
		e.Varint(int64(m.Accepted))
	case Peers:
		is = MsgPeers
		e.Uvarint(uint64(m.Worker))
		e.Str(m.Addr)
	case PeersAck:
		is = MsgPeersAck
	case EdgeTrim:
		is = MsgEdgeTrim
		e.Uvarint(uint64(len(m.Trims)))
		for _, t := range m.Trims {
			e.Uvarint(uint64(t.Edge))
			e.Uvarint(uint64(t.Inst))
			encodeWatermarks(e, t.Watermarks)
		}
	case EdgeTrimAck:
		is = MsgEdgeTrimAck
	case SnapBegin:
		is = MsgSnapBegin
		e.Fixed64(m.Stream)
		e.Uvarint(uint64(m.MaxBytes))
		e.Uvarint(m.Have)
	case SnapBeginAck:
		is = MsgSnapBeginAck
		e.Fixed64(m.Stream)
		e.Uvarint(m.Epoch)
	case SnapNext:
		is = MsgSnapNext
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
	case SnapChunk:
		is = MsgSnapChunk
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
		encodePartFields(e, &m.Part)
	case SnapEnd:
		is = MsgSnapEnd
		e.Fixed64(m.Stream)
		e.Uvarint(m.Chunks)
		e.Uvarint(m.Bytes)
		e.Uvarint(m.Epoch)
	case RestoreBegin:
		is = MsgRestoreBegin
		e.Fixed64(m.Stream)
	case RestoreBeginAck:
		is = MsgRestoreBeginAck
		e.Fixed64(m.Stream)
	case RestoreChunk:
		is = MsgRestoreChunk
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
		encodePartFields(e, &m.Part)
	case RestoreChunkAck:
		is = MsgRestoreChunkAck
		e.Fixed64(m.Stream)
		e.Fixed64(m.Seq)
	case RestoreEnd:
		is = MsgRestoreEnd
		e.Fixed64(m.Stream)
		e.Uvarint(m.Chunks)
	case RestoreEndAck:
		is = MsgRestoreEndAck
		e.Fixed64(m.Stream)
	}
	if is != msgType {
		return fmt.Errorf("wire: encode %s: value is a %T", MsgName(msgType), v)
	}
	return err
}

// decodeFlat parses a payload body into v, a pointer to a message struct.
// Trailing bytes after a complete payload are malformed: they would mean a
// layout disagreement.
//
//sdg:ignore borrowcopy -- Unmarshal's documented aliasing contract: decoded Items/Value alias the caller's buffer, and every handler consumes the message before the pooled frame is reused
func decodeFlat(body []byte, v any) error {
	d := flat.NewBorrowDecoder(body)
	switch m := v.(type) {
	case *Deploy:
		m.Graph = d.Str()
		m.QueueLen = int(d.Varint())
		m.OverflowLen = int(d.Varint())
		m.BatchSize = int(d.Varint())
		m.Worker = int(d.Uvarint())
		m.Workers = int(d.Uvarint())
		m.TEShards = decodeShards(d)
		m.SEShards = decodeShards(d)
		if n := d.Count(1); n > 0 {
			m.Peers = make([]string, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Peers = append(m.Peers, d.Str())
			}
		}
		m.AwaitRestore = d.Byte() != 0
	case *DeployAck:
		m.Graph = d.Str()
		m.TEs = int(d.Uvarint())
		m.SEs = int(d.Uvarint())
	case *Inject:
		m.Task = d.Str()
		m.Items = decodeItems(d)
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
	case *DumpReq:
		m.SE = d.Str()
	case *Dump:
		if n := d.Count(2); n > 0 {
			m.Entries = make([]KVEntry, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Entries = append(m.Entries, KVEntry{Key: d.Uvarint(), Value: d.Blob()})
			}
		}
	case *Stats:
		if n := d.Count(2); n > 0 {
			m.Processed = make(map[string]int64, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				task := d.Str()
				m.Processed[task] = d.Varint()
			}
		}
		if n := d.Count(2); n > 0 {
			m.Watermarks = make(map[string]map[uint64]uint64, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				task := d.Str()
				m.Watermarks[task] = decodeWatermarks(d)
			}
		}
	case *DrainReq:
		m.TimeoutMs = d.Varint()
	case *DrainAck:
		m.Quiesced = d.Byte() != 0
		m.Processed = d.Varint()
	case *RemoteEmit:
		m.Edge = int(d.Uvarint())
		m.Inst = int(d.Uvarint())
		m.Items = decodeItems(d)
	case *RemoteEmitAck:
		m.Accepted = int(d.Varint())
	case *Peers:
		m.Worker = int(d.Uvarint())
		m.Addr = d.Str()
	case *EdgeTrim:
		if n := d.Count(3); n > 0 {
			m.Trims = make([]EdgeTrimEntry, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Trims = append(m.Trims, EdgeTrimEntry{Edge: int(d.Uvarint()), Inst: int(d.Uvarint()), Watermarks: decodeWatermarks(d)})
			}
		}
	case *SnapBegin:
		m.Stream = d.Fixed64()
		m.MaxBytes = int(d.Uvarint())
		m.Have = d.Uvarint()
	case *SnapBeginAck:
		m.Stream = d.Fixed64()
		m.Epoch = d.Uvarint()
	case *SnapNext:
		m.Stream = d.Fixed64()
		m.Seq = d.Fixed64()
	case *SnapChunk:
		m.Stream = d.Fixed64()
		m.Seq = d.Fixed64()
		m.Part = decodePartFields(d)
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
		m.Part = decodePartFields(d)
	case *RestoreChunkAck:
		m.Stream = d.Fixed64()
		m.Seq = d.Fixed64()
	case *RestoreEnd:
		m.Stream = d.Fixed64()
		m.Chunks = d.Uvarint()
	case *RestoreEndAck:
		m.Stream = d.Fixed64()
	case *CallTimeout, *StatsReq, *Stop, *StopAck, *PeersAck, *EdgeTrimAck:
		// Empty body: finish rejects any byte.
	default:
		return fmt.Errorf("%w: no layout for %T", ErrBadPayload, v)
	}
	return finish(d)
}

// finish closes a decode: the first field error, or bytes left over after
// the last field, make the whole payload malformed.
func finish(d *flat.Decoder) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if !d.Done() {
		return fmt.Errorf("%w: %d trailing byte(s)", ErrBadPayload, d.Remaining())
	}
	return nil
}

func encodeBool(e *flat.Encoder, b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// minItemBytes is the smallest encoded item: four uvarints, one varint and
// a value tag.
const minItemBytes = 6

func encodeItems(e *flat.Encoder, items []core.Item) error {
	e.Uvarint(uint64(len(items)))
	for i := range items {
		if err := e.Item(items[i]); err != nil {
			return err
		}
	}
	return nil
}

func decodeItems(d *flat.Decoder) []core.Item {
	n := d.Count(minItemBytes)
	items := make([]core.Item, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		items = append(items, d.Item())
	}
	return items
}

func encodeWatermarks(e *flat.Encoder, wm map[uint64]uint64) {
	e.Uvarint(uint64(len(wm)))
	for _, origin := range slices.Sorted(maps.Keys(wm)) {
		e.Uvarint(origin)
		e.Uvarint(wm[origin])
	}
}

func decodeWatermarks(d *flat.Decoder) map[uint64]uint64 {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	wm := make(map[uint64]uint64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		origin := d.Uvarint()
		wm[origin] = d.Uvarint()
	}
	return wm
}

func encodeShards(e *flat.Encoder, shards map[string]Shard) {
	e.Uvarint(uint64(len(shards)))
	for _, name := range slices.Sorted(maps.Keys(shards)) {
		sh := shards[name]
		e.Str(name)
		e.Uvarint(uint64(sh.First))
		e.Uvarint(uint64(sh.Count))
		e.Uvarint(uint64(sh.Total))
	}
}

func decodeShards(d *flat.Decoder) map[string]Shard {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	shards := make(map[string]Shard, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		name := d.Str()
		shards[name] = Shard{First: int(d.Uvarint()), Count: int(d.Uvarint()), Total: int(d.Uvarint())}
	}
	return shards
}
