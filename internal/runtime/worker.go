package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// Worker hosts one process's slice of a distributed SDG deployment: it
// answers the coordinator's wire protocol over any cluster.Handler carrier
// (a TCP server in cmd/sdg-worker, an in-process Local transport in tests)
// and drives a local Runtime built from the graph registry. The local
// runtime always runs with checkpointing off — the coordinator owns
// checkpoints, because a snapshot stored inside the worker process dies
// with it.
type Worker struct {
	mu     sync.Mutex
	rt     *Runtime
	graph  string
	dialer func(addr string) (cluster.Transport, error)

	// snapMu serialises the streaming snapshot/restore protocol state.
	// Handlers hold it across capture and apply calls, which acquire the
	// runtime's pause and state locks underneath.
	//
	//sdg:lockorder snapstream 35
	snapMu  sync.Mutex
	serving *snapServe
	restore *restoreApply
	// restoreDone remembers the last completed restore stream so a
	// RestoreEnd retried after a lost ack is acked again instead of
	// failing the recovery.
	restoreDone uint64

	stopOnce sync.Once
	done     chan struct{}
}

// snapServe is one snapshot pull stream, kept after its last chunk until
// the next SnapBegin settles its epoch. last caches the most recent reply
// frame so a retried SnapNext re-serves identical bytes.
type snapServe struct {
	id      uint64
	epoch   uint64
	sc      *snapCapture
	lastSeq uint64
	last    []byte
	done    bool
}

// restoreApply is one open restore push stream; next is the seq the
// worker expects.
type restoreApply struct {
	id   uint64
	next uint64
}

// NewWorker returns an idle worker awaiting a Deploy message.
func NewWorker() *Worker {
	return &Worker{done: make(chan struct{})}
}

// SetDialer overrides how this worker reaches peer workers for cross-worker
// edges (default: cluster.Dial over TCP). Tests inject in-process transports
// here. Call before the coordinator deploys.
func (w *Worker) SetDialer(d func(addr string) (cluster.Transport, error)) {
	w.mu.Lock()
	w.dialer = d
	w.mu.Unlock()
}

// PendingEdgeItems reports items sitting in this worker's cross-worker edge
// send logs (zero once every downstream trim watermark has passed) — an
// observability hook for tests and operators.
func (w *Worker) PendingEdgeItems() int {
	rt, err := w.runtime()
	if err != nil {
		return 0
	}
	return rt.EdgeLogItems()
}

// OutBufItems reports items buffered in the runtime's out-edge logs —
// observability for the trim a snapshot cut applies.
func (w *Worker) OutBufItems() int {
	rt, err := w.runtime()
	if err != nil {
		return 0
	}
	return rt.OutBufItems()
}

// Handler returns the wire-protocol dispatcher, ready to serve as a
// cluster.Server handler. Returned errors become error replies on the
// connection (they never kill it), so the coordinator sees rejections as
// *cluster.RemoteError.
func (w *Worker) Handler() cluster.Handler { return w.handle }

// Done is closed when a Stop message has been processed; process mains use
// it to exit.
func (w *Worker) Done() <-chan struct{} { return w.done }

// Close stops the hosted runtime (idempotent); transports are the caller's.
func (w *Worker) Close() {
	w.closeSnapStreams()
	w.mu.Lock()
	rt := w.rt
	w.mu.Unlock()
	if rt != nil {
		rt.Stop()
	}
	w.stopOnce.Do(func() { close(w.done) })
}

// closeSnapStreams abandons any open snapshot/restore stream — on shutdown
// and on re-deploy, where the stream's runtime is going away. An abandoned
// restore stays sealed until the coordinator starts over.
func (w *Worker) closeSnapStreams() {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.dropServing()
	w.restore = nil
}

// dropServing abandons the pull stream, if any: its capture merges the
// dirty overlays back and folds its changed-key cuts back, since an epoch
// that did not finish cannot have been retained. Callers hold snapMu.
func (w *Worker) dropServing() {
	if w.serving != nil {
		w.serving.sc.close()
		w.serving.sc.settle(false)
		w.serving = nil
	}
}

// runtime returns the deployed runtime or an error before deployment.
func (w *Worker) runtime() (*Runtime, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rt == nil {
		return nil, fmt.Errorf("worker: no graph deployed")
	}
	return w.rt, nil
}

// handle dispatches one wire envelope.
func (w *Worker) handle(req []byte) ([]byte, error) {
	msgType, payload, err := wire.Decode(req)
	if err != nil {
		return nil, err
	}
	switch msgType {
	case wire.MsgDeploy:
		var m wire.Deploy
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		return w.deploy(m)
	case wire.MsgInject:
		var m wire.Inject
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		if err := rt.InjectLogged(m.Task, m.Items); err != nil {
			return nil, err
		}
		return wire.Encode(wire.MsgInjectAck, wire.InjectAck{Accepted: len(m.Items)})
	case wire.MsgCall:
		var m wire.Call
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		timeout := time.Duration(m.TimeoutMs) * time.Millisecond
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		v, err := rt.CallItem(m.Task, m.Item, timeout)
		if errors.Is(err, ErrTimeout) {
			// The item is enqueued and may still apply: an error reply would
			// tell the coordinator it never entered.
			return wire.Encode(wire.MsgCallTimeout, wire.CallTimeout{})
		}
		if err != nil {
			return nil, err
		}
		return wire.Encode(wire.MsgCallReply, wire.CallReply{Value: v})
	case wire.MsgHeartbeat:
		var m wire.Heartbeat
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		ack := wire.HeartbeatAck{Seq: m.Seq}
		if rt, err := w.runtime(); err == nil {
			ack.Queued = rt.QueuedTotal()
		}
		return wire.Encode(wire.MsgHeartbeatAck, ack)
	case wire.MsgDumpReq:
		var m wire.DumpReq
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		kvs, err := rt.DumpKV(m.SE)
		if err != nil {
			return nil, err
		}
		dump := wire.Dump{Entries: make([]wire.KVEntry, 0, len(kvs))}
		for k, v := range kvs {
			dump.Entries = append(dump.Entries, wire.KVEntry{Key: k, Value: v})
		}
		return wire.Encode(wire.MsgDump, dump)
	case wire.MsgStatsReq:
		var m wire.StatsReq
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		stats := wire.Stats{
			Processed:  make(map[string]int64),
			Watermarks: make(map[string]map[uint64]uint64),
		}
		for _, ts := range rt.tes {
			name := ts.def.Name
			stats.Processed[name] = rt.Processed(name)
			if wm, err := rt.FoldedWatermarks(name); err == nil {
				stats.Watermarks[name] = wm
			}
		}
		return wire.Encode(wire.MsgStats, stats)
	case wire.MsgDrainReq:
		var m wire.DrainReq
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		timeout := time.Duration(m.TimeoutMs) * time.Millisecond
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		q := rt.Drain(timeout)
		return wire.Encode(wire.MsgDrainAck, wire.DrainAck{Quiesced: q, Processed: rt.ProcessedTotal()})
	case wire.MsgRemoteEmit:
		var m wire.RemoteEmit
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		// Items borrow the request frame; transports allocate a fresh
		// buffer per read (same retention contract as InjectLogged).
		if err := rt.RemoteDeliver(m.Edge, m.Inst, m.Items); err != nil {
			return nil, err
		}
		return wire.Encode(wire.MsgRemoteEmitAck, wire.RemoteEmitAck{Accepted: len(m.Items)})
	case wire.MsgPeers:
		var m wire.Peers
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		rt.ResetPeer(m.Worker, m.Addr)
		return wire.Encode(wire.MsgPeersAck, wire.PeersAck{})
	case wire.MsgEdgeTrim:
		var m wire.EdgeTrim
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		rt, err := w.runtime()
		if err != nil {
			return nil, err
		}
		rt.TrimEdgeLogs(m.Trims)
		return wire.Encode(wire.MsgEdgeTrimAck, wire.EdgeTrimAck{})
	case wire.MsgSnapBegin:
		var m wire.SnapBegin
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		return w.snapBegin(m)
	case wire.MsgSnapNext:
		var m wire.SnapNext
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		return w.snapNext(m)
	case wire.MsgRestoreBegin:
		var m wire.RestoreBegin
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		return w.restoreBegin(m)
	case wire.MsgRestoreChunk:
		var m wire.RestoreChunk
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		return w.restoreChunk(m)
	case wire.MsgRestoreEnd:
		var m wire.RestoreEnd
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		return w.restoreEnd(m)
	case wire.MsgStop:
		var m wire.Stop
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		w.Close()
		return wire.Encode(wire.MsgStopAck, wire.StopAck{})
	default:
		return nil, fmt.Errorf("worker: unhandled message %s", wire.MsgName(msgType))
	}
}

// snapBegin opens a snapshot pull stream: cut now, stream later. It first
// settles the previous stream's epoch, which is the earliest moment the
// worker can know its fate: the coordinator retained it exactly when Have
// names it. Anything else — the coordinator abandoned the stream midway,
// or lost the reply to its very last request — folds the epoch's
// changed-key cut back, so this epoch covers those keys again. The new
// epoch is numbered above both Have and the previous one, so no epoch this
// worker slot ever served, in any incarnation, can be mistaken for it.
func (w *Worker) snapBegin(m wire.SnapBegin) ([]byte, error) {
	rt, err := w.runtime()
	if err != nil {
		return nil, err
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	epoch := m.Have
	if prev := w.serving; prev != nil {
		prev.sc.close()
		prev.sc.settle(prev.done && prev.epoch == m.Have)
		epoch = max(epoch, prev.epoch)
		w.serving = nil
	}
	epoch++
	sc, err := rt.newSnapCapture(m.MaxBytes)
	if err != nil {
		return nil, err
	}
	w.serving = &snapServe{id: m.Stream, epoch: epoch, sc: sc}
	return wire.Encode(wire.MsgSnapBeginAck, wire.SnapBeginAck{Stream: m.Stream, Epoch: epoch})
}

// snapNext serves chunk Seq of the open stream. The dense seq makes retry
// exact: repeating the last seq re-serves the cached frame, anything else
// out of order is a protocol violation and kills the stream.
func (w *Worker) snapNext(m wire.SnapNext) ([]byte, error) {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	s := w.serving
	if s == nil || s.id != m.Stream {
		return nil, fmt.Errorf("worker: unknown snapshot stream %d", m.Stream)
	}
	if m.Seq == s.lastSeq && s.last != nil {
		return s.last, nil
	}
	if m.Seq != s.lastSeq+1 || s.done {
		w.dropServing()
		return nil, fmt.Errorf("worker: snapshot stream %d: seq %d out of order", m.Stream, m.Seq)
	}
	p, ok, err := s.sc.next()
	if err != nil {
		w.dropServing()
		return nil, err
	}
	var frame []byte
	if ok {
		frame, err = wire.Encode(wire.MsgSnapChunk, wire.SnapChunk{Stream: s.id, Seq: m.Seq, Part: p})
	} else {
		s.sc.close()
		s.done = true
		frame, err = wire.Encode(wire.MsgSnapEnd, wire.SnapEnd{Stream: s.id, Chunks: s.sc.parts, Bytes: s.sc.bytes, Epoch: s.epoch})
	}
	if err != nil {
		w.dropServing()
		return nil, err
	}
	s.lastSeq = m.Seq
	s.last = frame
	return frame, nil
}

// restoreBegin opens a restore push stream on the (freshly deployed,
// sealed) runtime. A new stream supersedes a half-finished one: the
// coordinator redeploys before retrying a failed restore, so partial state
// never leaks across attempts.
func (w *Worker) restoreBegin(m wire.RestoreBegin) ([]byte, error) {
	rt, err := w.runtime()
	if err != nil {
		return nil, err
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.restore = &restoreApply{id: m.Stream, next: 1}
	rt.beginRestoreStream()
	return wire.Encode(wire.MsgRestoreBeginAck, wire.RestoreBeginAck{Stream: m.Stream})
}

// restoreChunk applies part Seq. A re-send of the most recently applied
// seq (lost ack) is acked without re-applying — replay-log appends are not
// idempotent — and any other gap aborts the stream.
func (w *Worker) restoreChunk(m wire.RestoreChunk) ([]byte, error) {
	rt, err := w.runtime()
	if err != nil {
		return nil, err
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	ra := w.restore
	if ra == nil || ra.id != m.Stream {
		return nil, fmt.Errorf("worker: unknown restore stream %d", m.Stream)
	}
	if m.Seq == ra.next-1 {
		return wire.Encode(wire.MsgRestoreChunkAck, wire.RestoreChunkAck{Stream: m.Stream, Seq: m.Seq})
	}
	if m.Seq != ra.next {
		w.restore = nil
		return nil, fmt.Errorf("worker: restore stream %d: seq %d out of order (want %d)", m.Stream, m.Seq, ra.next)
	}
	if err := rt.applySnapPart(m.Part); err != nil {
		w.restore = nil
		return nil, err
	}
	ra.next++
	return wire.Encode(wire.MsgRestoreChunkAck, wire.RestoreChunkAck{Stream: m.Stream, Seq: m.Seq})
}

// restoreEnd completes the stream after verifying nothing was lost, then
// lifts the restore seal.
func (w *Worker) restoreEnd(m wire.RestoreEnd) ([]byte, error) {
	rt, err := w.runtime()
	if err != nil {
		return nil, err
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	ra := w.restore
	if ra == nil {
		if m.Stream != 0 && m.Stream == w.restoreDone {
			// The completing ack was lost and the coordinator retried.
			return wire.Encode(wire.MsgRestoreEndAck, wire.RestoreEndAck{Stream: m.Stream})
		}
		return nil, fmt.Errorf("worker: unknown restore stream %d", m.Stream)
	}
	if ra.id != m.Stream {
		return nil, fmt.Errorf("worker: unknown restore stream %d", m.Stream)
	}
	applied := ra.next - 1
	if m.Chunks != applied {
		w.restore = nil
		return nil, fmt.Errorf("worker: restore stream %d truncated: applied %d chunk(s), coordinator sent %d", m.Stream, applied, m.Chunks)
	}
	w.restore = nil
	w.restoreDone = m.Stream
	rt.finishRestoreStream()
	return wire.Encode(wire.MsgRestoreEndAck, wire.RestoreEndAck{Stream: m.Stream})
}

// deploy builds the named graph from the registry and starts the local
// runtime. Re-deploying replaces the previous runtime (stopping it first),
// so a coordinator can repurpose a live worker.
func (w *Worker) deploy(m wire.Deploy) ([]byte, error) {
	g, err := BuildGraph(m.Graph)
	if err != nil {
		return nil, err
	}
	opts := Options{
		Mode:        checkpoint.ModeOff,
		QueueLen:    m.QueueLen,
		OverflowLen: m.OverflowLen,
		BatchSize:   m.BatchSize,
	}
	w.mu.Lock()
	dialer := w.dialer
	w.mu.Unlock()
	opts.Shard = &ShardConfig{
		Worker:       m.Worker,
		Workers:      m.Workers,
		TEs:          m.TEShards,
		SEs:          m.SEShards,
		Peers:        m.Peers,
		Dialer:       dialer,
		AwaitRestore: m.AwaitRestore,
	}
	rt, err := Deploy(g, opts)
	if err != nil {
		return nil, err
	}
	// Any open snapshot/restore stream belongs to the runtime being
	// replaced; abandon it before the swap.
	w.closeSnapStreams()
	w.mu.Lock()
	old := w.rt
	w.rt = rt
	w.graph = m.Graph
	w.mu.Unlock()
	if old != nil {
		old.Stop()
	}
	return wire.Encode(wire.MsgDeployAck, wire.DeployAck{Graph: m.Graph, TEs: len(g.TEs), SEs: len(g.SEs)})
}
