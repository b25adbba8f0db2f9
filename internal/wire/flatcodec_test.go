package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// fuzzPayload exercises the TagGob fallback inside flat frames.
type fuzzPayload struct {
	N int
	S string
}

func init() {
	Register(fuzzPayload{})
}

// deltaChunk is a delta part's data as the worker serves it: two updates,
// one tombstone.
var deltaChunk = []byte{2, 5, 1, 'a', 9, 2, 'b', 'c', 1, 7}

// samples is the test-side closed set: representative values of every
// registered message type, keyed by type byte. TestEveryMessageHasOneLayout
// fails when msgNames and this table disagree, and FuzzFlatRoundTrip seeds
// from and decodes through it, so a message type cannot be added without
// landing here.
var samples = map[byte][]any{
	MsgDeploy: {
		Deploy{Graph: "kv", Partitions: map[string]int{"store": 4, "aux": 1}, QueueLen: 1024, OverflowLen: 64, BatchSize: 32, WireCheck: true},
		Deploy{Graph: "counterchain", BatchSize: 64, Worker: 1, Workers: 2,
			TEShards: map[string]Shard{"count": {First: 1, Count: 1, Total: 2}, "bump": {First: 1, Count: 1, Total: 2}},
			SEShards: map[string]Shard{"counts": {First: 1, Count: 1, Total: 2}},
			Peers:    []string{"127.0.0.1:7171", "127.0.0.1:7172"}, AwaitRestore: true},
	},
	MsgDeployAck: {DeployAck{Graph: "kv", TEs: 3, SEs: 1}},
	MsgInject: {
		Inject{Task: "put", Items: []core.Item{
			{Origin: ^uint64(0), Seq: 1, Key: 42, Value: []byte("v1")},
			{Origin: 3, Seq: 2, Key: 43, ReqID: 9, Parts: 2, Value: core.Collection{uint64(7), "x", nil}},
		}},
		Inject{Task: "g", Items: []core.Item{{Value: fuzzPayload{N: 5, S: "gob"}}}},
	},
	MsgInjectAck:    {InjectAck{Accepted: 17}},
	MsgCall:         {Call{Task: "get", Item: core.Item{Key: 7, Value: nil}, TimeoutMs: 10_000}},
	MsgCallReply:    {CallReply{Value: []byte("reply")}, CallReply{Value: math.Pi}},
	MsgHeartbeat:    {Heartbeat{Seq: 9}},
	MsgHeartbeatAck: {HeartbeatAck{Seq: 9, Queued: 3}},
	MsgDumpReq:      {DumpReq{SE: "store"}},
	MsgDump:         {Dump{Entries: []KVEntry{{Key: 1, Value: []byte("a")}, {Key: 1 << 40, Value: []byte("bc")}}}, Dump{}},
	MsgStatsReq:     {StatsReq{}},
	MsgStats: {Stats{
		Processed:  map[string]int64{"put": 12, "get": 7},
		Watermarks: map[string]map[uint64]uint64{"put": {^uint64(0): 12, 3: 4}, "get": {^uint64(0): 7}},
	}},
	MsgDrainReq: {DrainReq{TimeoutMs: 5000}},
	MsgDrainAck: {DrainAck{Quiesced: true, Processed: 100_000}},
	MsgStop:     {Stop{}},
	MsgStopAck:  {StopAck{}},
	MsgRemoteEmit: {
		RemoteEmit{Edge: 2, Inst: 5, Items: []core.Item{
			{Origin: 1<<40 | 3, Seq: 11, Key: 42, Value: []byte("edge")},
			{Origin: 1 << 33, Seq: 12, Key: 43, ReqID: 4, Parts: 3, Value: core.Collection{uint64(1), nil}},
		}},
		RemoteEmit{Items: []core.Item{{Value: fuzzPayload{N: 8, S: "gob"}}}},
	},
	MsgRemoteEmitAck: {RemoteEmitAck{Accepted: 64}},
	MsgPeers:         {Peers{Worker: 1, Addr: "127.0.0.1:40000"}},
	MsgPeersAck:      {PeersAck{}},
	MsgEdgeTrim: {EdgeTrim{
		Trims:  []EdgeTrimEntry{{Edge: 0, Inst: 1, Watermarks: map[uint64]uint64{1<<32 | 1: 100, 1 << 32: 90}}},
		Locals: []LocalTrim{{TE: "count", Watermarks: map[uint64]uint64{^uint64(0): 999}}},
	}},
	MsgEdgeTrimAck: {EdgeTrimAck{}},
	MsgSnapBegin: {
		SnapBegin{Stream: 7, MaxBytes: 4096},
		SnapBegin{Stream: 8, MaxBytes: 1 << 20, Have: 6, Rebase: []SEInst{{"store", 1}, {"counts", 0}}},
	},
	MsgSnapBeginAck: {SnapBeginAck{Stream: 7, Epoch: 7}},
	MsgSnapNext:     {SnapNext{Stream: 7, Seq: 3}},
	MsgSnapChunk: {
		SnapChunk{Stream: 7, Seq: 3, Part: SnapPart{
			Kind: PartSE, Name: "store", Index: 1, Store: 1, ChunkIndex: 2, ChunkOf: 4,
			Delta: true, Data: []byte("chunk"),
		}},
		SnapChunk{Stream: 7, Seq: 4, Part: SnapPart{
			Kind: PartTE, Name: "put", Watermarks: map[uint64]uint64{1: 9, ^uint64(0): 3}, OutSeq: 11, Data: []byte{},
		}},
		SnapChunk{Stream: 7, Seq: 5, Part: SnapPart{
			Kind: PartSE, Name: "store", Store: 1, ChunkIndex: 0, Delta: true, Data: deltaChunk,
		}},
	},
	MsgSnapEnd:         {SnapEnd{Stream: 7, Chunks: 12, Bytes: 1 << 20, Epoch: 7}},
	MsgRestoreBegin:    {RestoreBegin{Stream: 8}},
	MsgRestoreBeginAck: {RestoreBeginAck{Stream: 8}},
	MsgRestoreChunk: {
		RestoreChunk{Stream: 8, Seq: 1, Part: SnapPart{Kind: PartEdge, Edge: 2, Inst: 3, Data: []byte("items")}},
		RestoreChunk{Stream: 8, Seq: 2, Part: SnapPart{
			Kind: PartSE, Name: "store", Index: 1, Store: 1, ChunkIndex: 3, Delta: true, Data: deltaChunk,
		}},
	},
	MsgRestoreChunkAck: {RestoreChunkAck{Stream: 8, Seq: 1}},
	MsgRestoreEnd:      {RestoreEnd{Stream: 8, Chunks: 2}},
	MsgRestoreEndAck:   {RestoreEndAck{Stream: 8}},
}

// decodeAs unmarshals p into a fresh struct of the type samples holds for
// msgType and returns it by value.
func decodeAs(msgType byte, p Payload) (any, error) {
	ptr := reflect.New(reflect.TypeOf(samples[msgType][0]))
	err := Unmarshal(p, ptr.Interface())
	return ptr.Elem().Interface(), err
}

// TestEveryMessageHasOneLayout is the closed-set check: every type byte in
// msgNames round-trips through its flat layout, encodes the same bytes
// every time (maps included), is refused under any other version byte, and
// is refused for any other message's struct.
func TestEveryMessageHasOneLayout(t *testing.T) {
	for msgType := range samples {
		if _, ok := msgNames[msgType]; !ok {
			t.Errorf("samples holds unregistered type 0x%02x", msgType)
		}
	}
	for msgType, name := range msgNames {
		vals := samples[msgType]
		if len(vals) == 0 {
			t.Errorf("%s (0x%02x) has no entry in samples", name, msgType)
			continue
		}
		for _, in := range vals {
			frame, err := Encode(msgType, in)
			if err != nil {
				t.Errorf("%s has no flat layout: %v", name, err)
				continue
			}
			if frame[0] != msgType || frame[1] != Version {
				t.Errorf("%s: envelope header % x", name, frame[:2])
			}
			for i := 0; i < 4; i++ {
				if again, _ := Encode(msgType, in); !bytes.Equal(again, frame) {
					t.Errorf("%s does not encode deterministically", name)
				}
			}
			gotType, payload, err := Decode(frame)
			if err != nil || gotType != msgType {
				t.Errorf("%s: Decode: type 0x%02x err %v", name, gotType, err)
				continue
			}
			out, err := decodeAs(msgType, payload)
			if err != nil {
				t.Errorf("%s does not decode: %v", name, err)
			} else if !reflect.DeepEqual(out, in) {
				t.Errorf("%s changed across the wire:\n got %#v\nwant %#v", name, out, in)
			}
			for _, ver := range []byte{0, 1, Version + 1} {
				bad := append([]byte(nil), frame...)
				bad[1] = ver
				var ve *VersionError
				if _, _, err := Decode(bad); !errors.As(err, &ve) || ve.Got != ver || ve.Want != Version {
					t.Errorf("%s under version %d: Decode error = %v, want *VersionError", name, ver, err)
				}
			}
		}
		other := MsgHeartbeat
		if msgType == MsgHeartbeat {
			other = MsgStop
		}
		if _, err := Encode(msgType, samples[other][0]); err == nil {
			t.Errorf("Encode(%s, %T) succeeded", name, samples[other][0])
		}
	}
	for b := byte(0x09); b <= 0x0c; b++ {
		if _, _, err := Decode([]byte{b, Version}); !errors.Is(err, ErrUnknownType) {
			t.Errorf("retired type 0x%02x: Decode error = %v, want ErrUnknownType", b, err)
		}
	}
}

// TestGoldenFrames pins the wire where traffic flows: the exact bytes of
// the data-plane and snapshot-chunk frames. A change here is a protocol
// break, never a refactor.
func TestGoldenFrames(t *testing.T) {
	golden := []struct {
		msgType byte
		msg     any
		hex     string
	}{
		{MsgInject, Inject{Task: "put", Items: []core.Item{
			{Origin: ^uint64(0), Seq: 1, Key: 42, Value: []byte("v1")},
			{Origin: 3, Seq: 2, Key: 43, ReqID: 9, Parts: 2, Value: core.Collection{uint64(7), "x", nil, true, int64(-5), 1.5, 12}},
		}}, "0302037075740200012a00000903763104022b09040a0804070801780103050907000000000000f83f0618"},
		{MsgCall, Call{Task: "get", Item: core.Item{Origin: ^uint64(0), Seq: 300, Key: 7, Value: []byte("k")}, TimeoutMs: 10_000},
			"050203676574a09c0100ac0207000009026b"},
		{MsgCallReply, CallReply{Value: []byte("reply")}, "060209067265706c79"},
		{MsgHeartbeat, Heartbeat{Seq: 0x0102030405060708}, "07020807060504030201"},
		{MsgRemoteEmit, RemoteEmit{Edge: 2, Inst: 5, Items: []core.Item{
			{Origin: 1<<40 | 3, Seq: 11, Key: 42, Value: []byte("edge")},
			{Origin: 1 << 33, Seq: 12, Key: 43, Value: uint64(1)},
		}}, "15020205028480808080200b2a000009056564676581808080200c2b00000401"},
		{MsgSnapChunk, SnapChunk{Stream: 7, Seq: 3, Part: SnapPart{
			Kind: PartSE, Name: "store", Index: 1, Store: state.TypeKVMap, ChunkIndex: 2, ChunkOf: 4,
			Delta: true, Data: []byte("chunk"),
		}}, "1e0207000000000000000300000000000000010573746f7265010102040100000000056368756e6b"},
		{MsgSnapChunk, SnapChunk{Stream: 7, Seq: 4, Part: SnapPart{
			Kind: PartTE, Name: "put", Index: 1, Watermarks: map[uint64]uint64{1: 9, ^uint64(0): 3, 7: 7}, OutSeq: 11, Data: []byte{},
		}}, "1e0207000000000000000400000000000000020370757401000000000301090707ffffffffffffffffff01030b000000"},
	}
	for _, g := range golden {
		name := MsgName(g.msgType)
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(g.msgType, g.msg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s frame changed:\n got %x\nwant %x", name, got, want)
		}
		_, payload, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: golden frame rejected: %v", name, err)
		}
		if out, err := decodeAs(g.msgType, payload); err != nil || !reflect.DeepEqual(out, g.msg) {
			t.Errorf("%s golden frame decodes to %#v (err %v), want %#v", name, out, err, g.msg)
		}
	}
}

// hostileCounts are frames whose first collection count claims 2^30
// entries in a near-empty body. Each must be refused before the count
// sizes an allocation.
var hostileCounts = map[string][]byte{
	"inject items":       {MsgInject, Version, 0x01, 'p', 0x80, 0x80, 0x80, 0x80, 0x04},
	"remoteemit items":   {MsgRemoteEmit, Version, 0x01, 0x02, 0x80, 0x80, 0x80, 0x80, 0x04},
	"deploy partitions":  {MsgDeploy, Version, 0x01, 'g', 0x80, 0x80, 0x80, 0x80, 0x04},
	"deploy shards":      {MsgDeploy, Version, 0x01, 'g', 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x04},
	"deploy peers":       {MsgDeploy, Version, 0x01, 'g', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x04},
	"dump entries":       {MsgDump, Version, 0x80, 0x80, 0x80, 0x80, 0x04},
	"stats processed":    {MsgStats, Version, 0x80, 0x80, 0x80, 0x80, 0x04},
	"stats tasks":        {MsgStats, Version, 0, 0x80, 0x80, 0x80, 0x80, 0x04},
	"stats watermarks":   {MsgStats, Version, 0, 1, 1, 't', 0x80, 0x80, 0x80, 0x80, 0x04},
	"edgetrim trims":     {MsgEdgeTrim, Version, 0x80, 0x80, 0x80, 0x80, 0x04},
	"edgetrim watermark": {MsgEdgeTrim, Version, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x04},
	"edgetrim locals":    {MsgEdgeTrim, Version, 0, 0x80, 0x80, 0x80, 0x80, 0x04},
	"snapbegin rebase":   {MsgSnapBegin, Version, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x04},
	"snapchunk watermarks": {MsgSnapChunk, Version,
		1, 0, 0, 0, 0, 0, 0, 0, // stream
		1, 0, 0, 0, 0, 0, 0, 0, // seq
		1, 0, 0, 1, 0, 0, 0, // kind, name len, index, store, chunk idx/of, delta
		0x80, 0x80, 0x80, 0x80, 0x04},
}

func TestHostileCountsRejectedBeforeAllocation(t *testing.T) {
	for name, frame := range hostileCounts {
		msgType, payload, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: envelope rejected: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = decodeAs(msgType, payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: error = %v, want ErrBadPayload", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decode allocated %d bytes for a %d-byte frame", name, grew, len(frame))
		}
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

// TestDecodeAllocs pins that decoding allocates only what the message holds:
// a Heartbeat holds nothing, so its decode is free. An allocation here means
// the flat.Decoder escaped to the heap (passing it through a func value does
// that), which every Call and Inject would then pay.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact counts only hold in normal builds")
	}
	frame, err := Encode(MsgHeartbeat, Heartbeat{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	var hb Heartbeat
	if allocs := testing.AllocsPerRun(200, func() {
		if err := Expect(frame, MsgHeartbeat, &hb); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decode(heartbeat) = %.1f allocs/op, want 0", allocs)
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

// FuzzFlatRoundTrip covers every message type, including items whose values
// ride the gob fallback: any frame the decoder accepts must re-encode and
// decode to the same message, and nothing may panic.
func FuzzFlatRoundTrip(f *testing.F) {
	for _, msgType := range slices.Sorted(maps.Keys(samples)) {
		for _, v := range samples[msgType] {
			frame, err := Encode(msgType, v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(hostileCounts)) {
		f.Add(hostileCounts[name])
	}
	f.Add([]byte{MsgInject, Version, 0x01, 'p', 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		msgType, payload, err := Decode(data)
		if err != nil {
			return
		}
		m1, err := decodeAs(msgType, payload)
		if err != nil {
			return // malformed payloads are rejected, which is the contract
		}
		frame2, err := Encode(msgType, m1)
		if err != nil {
			t.Fatalf("accepted message %+v does not re-encode: %v", m1, err)
		}
		msgType2, payload2, err := Decode(frame2)
		if err != nil || msgType2 != msgType {
			t.Fatalf("re-encoded frame rejected: type %d err %v", msgType2, err)
		}
		m2, err := decodeAs(msgType, payload2)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(normalizeMsg(m1), normalizeMsg(m2)) {
			t.Fatalf("message changed across re-encode:\n  %#v\n  %#v", m1, m2)
		}
	})
}
