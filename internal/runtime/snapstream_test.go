package runtime_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	_ "repro/internal/apps/kv"
	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// deployLocalWorker spins up one in-process worker behind a single-worker
// coordinator on the named graph and returns both plus a raw control
// transport into the worker's handler for protocol-level tests.
func deployLocalWorker(t *testing.T, graph string, opts runtime.CoordOptions) (*runtime.Worker, *runtime.Coordinator, cluster.Transport) {
	t.Helper()
	w := runtime.NewWorker()
	t.Cleanup(w.Close)
	ep := runtime.WorkerEndpoint{
		Data:    cluster.Local(w.Handler(), 0),
		Control: cluster.Local(w.Handler(), 0),
	}
	coord, err := runtime.NewCoordinator(graph, []runtime.WorkerEndpoint{ep}, opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	return w, coord, cluster.Local(w.Handler(), 0)
}

// mustEncode encodes a frame or fails the test.
func mustEncode(t *testing.T, msgType byte, v any) []byte {
	t.Helper()
	frame, err := wire.Encode(msgType, v)
	if err != nil {
		t.Fatalf("encode %s: %v", wire.MsgName(msgType), err)
	}
	return frame
}

// TestSnapshotStreamServeProtocol drives the worker's pull protocol with
// hand-built frames: a full drain to SnapEnd, exact re-serve of a retried
// seq, and rejection of out-of-order and unknown-stream requests.
func TestSnapshotStreamServeProtocol(t *testing.T) {
	_, coord, tr := deployLocalWorker(t, "counter", runtime.CoordOptions{})
	for i := 0; i < 200; i++ {
		if err := coord.Inject("inc", uint64(i%10), nil); err != nil {
			t.Fatalf("inject: %v", err)
		}
	}
	if !coord.Drain(10 * time.Second) {
		t.Fatal("did not quiesce")
	}

	// Unknown stream before any SnapBegin.
	if _, err := tr.Call(mustEncode(t, wire.MsgSnapNext, wire.SnapNext{Stream: 1, Seq: 1})); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("SnapNext without stream: err = %v, want remote error", err)
	}

	begin := func(stream uint64) {
		t.Helper()
		resp, err := tr.Call(mustEncode(t, wire.MsgSnapBegin, wire.SnapBegin{Stream: stream, MaxBytes: 256}))
		if err != nil {
			t.Fatalf("SnapBegin: %v", err)
		}
		var ack wire.SnapBeginAck
		if err := wire.Expect(resp, wire.MsgSnapBeginAck, &ack); err != nil || ack.Stream != stream {
			t.Fatalf("SnapBeginAck: %+v, %v", ack, err)
		}
	}

	// Stream 1: retried seq must re-serve the identical frame.
	begin(1)
	first, err := tr.Call(mustEncode(t, wire.MsgSnapNext, wire.SnapNext{Stream: 1, Seq: 1}))
	if err != nil {
		t.Fatalf("SnapNext 1: %v", err)
	}
	again, err := tr.Call(mustEncode(t, wire.MsgSnapNext, wire.SnapNext{Stream: 1, Seq: 1}))
	if err != nil {
		t.Fatalf("retried SnapNext 1: %v", err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("retried seq did not re-serve the identical frame")
	}
	// A seq gap kills the stream...
	if _, err := tr.Call(mustEncode(t, wire.MsgSnapNext, wire.SnapNext{Stream: 1, Seq: 5})); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("out-of-order seq: err = %v, want remote error", err)
	}
	// ...so even the next dense seq is now unknown.
	if _, err := tr.Call(mustEncode(t, wire.MsgSnapNext, wire.SnapNext{Stream: 1, Seq: 2})); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("seq after kill: err = %v, want remote error", err)
	}

	// Stream 2 supersedes and drains fully; SnapEnd's count must match and
	// every chunk frame respects the requested byte bound (modulo header
	// and one entry).
	begin(2)
	var chunks uint64
	for seq := uint64(1); ; seq++ {
		resp, err := tr.Call(mustEncode(t, wire.MsgSnapNext, wire.SnapNext{Stream: 2, Seq: seq}))
		if err != nil {
			t.Fatalf("SnapNext %d: %v", seq, err)
		}
		msgType, payload, err := wire.Decode(resp)
		if err != nil {
			t.Fatalf("decode reply %d: %v", seq, err)
		}
		if msgType == wire.MsgSnapChunk {
			var ck wire.SnapChunk
			if err := wire.Unmarshal(payload, &ck); err != nil {
				t.Fatalf("chunk %d: %v", seq, err)
			}
			if ck.Stream != 2 || ck.Seq != seq {
				t.Fatalf("chunk ids %d/%d, want 2/%d", ck.Stream, ck.Seq, seq)
			}
			if len(resp) > 256+1024 {
				t.Fatalf("chunk frame %d bytes exceeds the 256-byte bound by more than a header + one entry", len(resp))
			}
			chunks++
			continue
		}
		var end wire.SnapEnd
		if err := wire.Expect(resp, wire.MsgSnapEnd, &end); err != nil {
			t.Fatalf("expected SnapEnd: %v", err)
		}
		if end.Stream != 2 || end.Chunks != chunks {
			t.Fatalf("SnapEnd %+v, want stream 2 with %d chunks", end, chunks)
		}
		// Retrying the final seq re-serves SnapEnd.
		respAgain, err := tr.Call(mustEncode(t, wire.MsgSnapNext, wire.SnapNext{Stream: 2, Seq: seq}))
		if err != nil || !bytes.Equal(resp, respAgain) {
			t.Fatalf("retried SnapEnd diverged (err %v)", err)
		}
		break
	}
	if chunks < 2 {
		t.Fatalf("stream served %d chunk(s); the 256-byte bound should have split the state", chunks)
	}
}

// TestRestoreStreamApplyProtocol drives the worker's push protocol with
// hand-built frames: duplicate-seq ack without re-apply, out-of-order
// abort, truncation detection, and the lost-final-ack retry.
func TestRestoreStreamApplyProtocol(t *testing.T) {
	_, _, tr := deployLocalWorker(t, "counter", runtime.CoordOptions{})

	tePart := wire.SnapPart{Kind: wire.PartTE, Name: "inc", Index: 0,
		Watermarks: map[uint64]uint64{1: 5}, OutSeq: 3}

	call := func(msgType byte, v any) ([]byte, error) { return tr.Call(mustEncode(t, msgType, v)) }

	if _, err := call(wire.MsgRestoreChunk, wire.RestoreChunk{Stream: 9, Seq: 1, Part: tePart}); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("chunk without stream: err = %v, want remote error", err)
	}

	beginRestore := func(stream uint64) {
		t.Helper()
		resp, err := call(wire.MsgRestoreBegin, wire.RestoreBegin{Stream: stream})
		if err != nil {
			t.Fatalf("RestoreBegin: %v", err)
		}
		var ack wire.RestoreBeginAck
		if err := wire.Expect(resp, wire.MsgRestoreBeginAck, &ack); err != nil || ack.Stream != stream {
			t.Fatalf("RestoreBeginAck: %+v, %v", ack, err)
		}
	}
	sendChunk := func(stream, seq uint64) error {
		resp, err := call(wire.MsgRestoreChunk, wire.RestoreChunk{Stream: stream, Seq: seq, Part: tePart})
		if err != nil {
			return err
		}
		var ack wire.RestoreChunkAck
		if err := wire.Expect(resp, wire.MsgRestoreChunkAck, &ack); err != nil {
			return err
		}
		if ack.Stream != stream || ack.Seq != seq {
			return fmt.Errorf("ack %d/%d, want %d/%d", ack.Stream, ack.Seq, stream, seq)
		}
		return nil
	}

	// Duplicate of the most recently applied seq is acked again (lost-ack
	// retry), not re-applied and not an error.
	beginRestore(9)
	if err := sendChunk(9, 1); err != nil {
		t.Fatalf("chunk 1: %v", err)
	}
	if err := sendChunk(9, 1); err != nil {
		t.Fatalf("duplicate chunk 1: %v", err)
	}
	// A gap aborts the stream.
	if err := sendChunk(9, 4); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("gap seq: err = %v, want remote error", err)
	}
	if err := sendChunk(9, 2); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("chunk after abort: err = %v, want remote error", err)
	}

	// Truncation: RestoreEnd must carry the applied count. The duplicate
	// above must NOT have double-counted (Chunks: 2 is what a re-applying
	// worker would accept).
	beginRestore(10)
	if err := sendChunk(10, 1); err != nil {
		t.Fatalf("chunk: %v", err)
	}
	if _, err := call(wire.MsgRestoreEnd, wire.RestoreEnd{Stream: 10, Chunks: 5}); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("truncated RestoreEnd: err = %v, want remote error", err)
	}

	// Clean finish, then the retry of a lost RestoreEndAck.
	beginRestore(11)
	if err := sendChunk(11, 1); err != nil {
		t.Fatalf("chunk: %v", err)
	}
	if err := sendChunk(11, 1); err != nil {
		t.Fatalf("duplicate chunk: %v", err)
	}
	for i := 0; i < 2; i++ {
		resp, err := call(wire.MsgRestoreEnd, wire.RestoreEnd{Stream: 11, Chunks: 1})
		if err != nil {
			t.Fatalf("RestoreEnd (attempt %d): %v", i+1, err)
		}
		var ack wire.RestoreEndAck
		if err := wire.Expect(resp, wire.MsgRestoreEndAck, &ack); err != nil || ack.Stream != 11 {
			t.Fatalf("RestoreEndAck (attempt %d): %+v, %v", i+1, ack, err)
		}
	}
}

// TestLocalBufTrimAfterCheckpoint: a coordinator checkpoint must shrink the
// worker-local replay buffers (entry source buffer and in-process out-edge
// buffers) via the broadcast local trim floors — without it they grow for
// the life of the process.
func TestLocalBufTrimAfterCheckpoint(t *testing.T) {
	w, coord, _ := deployLocalWorker(t, "counterchain", runtime.CoordOptions{Partitions: map[string]int{"counts": 2}})
	for i := 0; i < 500; i++ {
		if err := coord.Inject("ingest", uint64(i%40), nil); err != nil {
			t.Fatalf("inject: %v", err)
		}
	}
	if !coord.Drain(10 * time.Second) {
		t.Fatal("did not quiesce")
	}
	before := w.OutBufItems()
	if before == 0 {
		t.Fatal("no locally buffered items before checkpoint; the test measures nothing")
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	after := w.OutBufItems()
	if after >= before {
		t.Fatalf("local buffers not trimmed: %d items before checkpoint, %d after", before, after)
	}
}

// cappingTransport records the largest frame per message type in both
// directions and remembers which types appeared — the probe that proves no
// monolithic snapshot frame ever crosses the streaming path.
type cappingTransport struct {
	inner cluster.Transport
	mu    *sync.Mutex
	seen  map[byte]int // max frame bytes per leading type byte
}

func (t *cappingTransport) note(frame []byte) {
	if len(frame) == 0 {
		return
	}
	t.mu.Lock()
	if len(frame) > t.seen[frame[0]] {
		t.seen[frame[0]] = len(frame)
	}
	t.mu.Unlock()
}

func (t *cappingTransport) Call(req []byte) ([]byte, error) {
	t.note(req)
	resp, err := t.inner.Call(req)
	if err == nil {
		t.note(resp)
	}
	return resp, err
}

func (t *cappingTransport) Close() error { return t.inner.Close() }

// TestDistributedStreamSnapshotBigState checkpoints and kill-recovers a
// two-worker kv deployment whose per-worker state is far larger than the
// in-test frame bound, and requires (a) exact state after recovery, (b)
// snapshot and restore chunks on the path, and (c) every streamed snapshot
// frame within the bound.
func TestDistributedStreamSnapshotBigState(t *testing.T) {
	const chunkBytes = 4096
	var mu sync.Mutex
	seen := map[byte]int{}
	wrap := func(h cluster.Handler) cluster.Transport {
		return &cappingTransport{inner: cluster.Local(h, 0), mu: &mu, seen: seen}
	}

	w0 := runtime.NewWorker()
	defer w0.Close()
	w1 := runtime.NewWorker()
	defer w1.Close()
	ep0 := runtime.WorkerEndpoint{Data: wrap(w0.Handler()), Control: wrap(w0.Handler())}
	ep1 := runtime.WorkerEndpoint{Data: wrap(w1.Handler()), Control: wrap(w1.Handler())}

	failed := make(chan int, 4)
	coord, err := runtime.NewCoordinator("kv", []runtime.WorkerEndpoint{ep0, ep1}, runtime.CoordOptions{
		Partitions:        map[string]int{"store": 2},
		SnapChunkBytes:    chunkBytes,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
		OnFailure:         func(w int) { failed <- w },
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	expected := map[uint64][]byte{}
	put := func(key uint64, tag string) {
		t.Helper()
		val := bytes.Repeat([]byte(tag), 256) // ~1 KiB values: state >> chunkBytes
		if err := coord.Inject("put", key, val); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
		expected[key] = val
	}

	for k := uint64(0); k < 400; k++ {
		put(k, fmt.Sprintf("A%03d", k))
	}
	if !coord.Drain(20 * time.Second) {
		t.Fatal("did not quiesce before checkpoint")
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	stats := coord.SnapshotStats()
	if stats.Workers != 2 {
		t.Fatalf("checkpoint covered %d workers, want 2", stats.Workers)
	}
	if stats.Chunks < 20 {
		t.Fatalf("state split into only %d chunks; expected far more at a %d-byte bound", stats.Chunks, chunkBytes)
	}
	if stats.RawBytes < 10*int64(chunkBytes) {
		t.Fatalf("streamed state is only %d bytes; the test needs state >> the frame bound", stats.RawBytes)
	}

	// Newer than the snapshot: must come back via replay after recovery.
	for k := uint64(0); k < 100; k++ {
		put(k, fmt.Sprintf("B%03d", k))
	}

	w1.Close()
	ep1.Data.Close()
	ep1.Control.Close()
	select {
	case idx := <-failed:
		if idx != 1 {
			t.Fatalf("failure detector blamed worker %d, want 1", idx)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failure detector never fired")
	}

	// Items for the dead worker queue in the replay log.
	for k := uint64(100); k < 200; k++ {
		put(k, fmt.Sprintf("C%03d", k))
	}

	w1b := runtime.NewWorker()
	defer w1b.Close()
	ep1b := runtime.WorkerEndpoint{Data: wrap(w1b.Handler()), Control: wrap(w1b.Handler())}
	if err := coord.RecoverWorker(1, ep1b); err != nil {
		t.Fatalf("RecoverWorker: %v", err)
	}
	if !coord.Drain(20 * time.Second) {
		t.Fatal("did not quiesce after recovery")
	}

	got, err := coord.DumpKV("store")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if len(got) != len(expected) {
		t.Fatalf("store has %d keys, want %d", len(got), len(expected))
	}
	for k, v := range expected {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %d: %q, want %q (lost or stale after recovery)", k, got[k], v)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if _, ok := seen[wire.MsgSnapChunk]; !ok {
		t.Fatal("no streamed snapshot chunk observed")
	}
	if _, ok := seen[wire.MsgRestoreChunk]; !ok {
		t.Fatal("no streamed restore chunk observed")
	}
	// Frame bound: chunk payload bound + part header + envelope slack.
	const frameCap = chunkBytes + 2048
	for _, mt := range []byte{wire.MsgSnapChunk, wire.MsgSnapEnd, wire.MsgRestoreChunk} {
		if n := seen[mt]; n > frameCap {
			t.Fatalf("%s frame of %d bytes exceeds the %d-byte bound", wire.MsgName(mt), n, frameCap)
		}
	}
}
