package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/wire"
)

// This file is the remote half of the delivery seam. deliverBatch's local
// path hands receiver-owned sub-batches to in-process queues; an edge whose
// destination TE has instances on other workers carries a *remoteEdge and
// routes through here instead. The contract mirrors the coordinator's
// injection path: every remote-destined item is appended to a per-(edge,
// destination-instance) send log *before* it is queued for transmission
// (log-before-ack), a per-peer sender goroutine pushes queued batches as
// RemoteEmit frames and retries forever on any error — receiver dedup makes
// ambiguous re-sends idempotent — and the logs are trimmed only when the
// coordinator distributes the destination's snapshotted dedup watermarks
// (EdgeTrim). A full or still-restoring receiver rejects the frame instead
// of blocking, so cross-worker cycles cannot distributed-deadlock; the
// pressure shows up in the sender's pending count, which revokes ingress
// admission credits exactly like local overflow parking.

// remoteEdge marks an edgeRT as cut: its destination TE has at least one
// instance on another worker. idx is the edge's global index (its position
// in Graph.Edges), the identity RemoteEmit frames carry.
type remoteEdge struct {
	net *remoteNet
	idx int
	rr  atomic.Uint64 // one-to-any rotation over remote instances
}

// edgeInstKey identifies one send log: global edge index x global
// destination instance.
type edgeInstKey struct {
	edge, inst int
}

// outEntry is one logged batch queued for transmission to a peer.
type outEntry struct {
	edge  int
	inst  int
	items []core.Item
}

// peerConn is the send side of one worker-to-worker link. The queue is
// generation-versioned: a peer reset (recovery) rebuilds the queue from the
// send logs and bumps gen, so a sender mid-Call on the old queue must not
// pop — its entry was re-queued and a duplicate delivery is dedup'd
// downstream.
type peerConn struct {
	worker int

	//sdg:lockorder peermu 90
	mu     sync.Mutex
	cond   *sync.Cond
	addr   string
	tr     cluster.Transport
	queue  []outEntry
	gen    uint64
	closed bool
}

func queueItems(q []outEntry) int64 {
	var n int64
	for i := range q {
		n += int64(len(q[i].items))
	}
	return n
}

// remoteNet owns everything cross-worker on one runtime: the send logs, the
// per-peer connections and the receive-side edge table. net.mu makes
// log-append + queue-append atomic so the queue is always a suffix of the
// log — the invariant peer rebuilds rely on.
type remoteNet struct {
	r   *Runtime
	cfg *ShardConfig

	//sdg:lockorder netmu 80
	mu    sync.Mutex
	logs  map[edgeInstKey]*dataflow.OutputBuffer
	peers map[int]*peerConn

	// edgeTo maps global edge index -> destination teState, for both the
	// receive path (RemoteDeliver) and send-log ownership math.
	edgeTo map[int]*teState

	// pending counts items logged but not yet acked by their peer; folded
	// into backpressure and drain the way parked overflow is.
	pending atomic.Int64

	// sealed rejects inbound RemoteEmit until finishRestoreStream, so
	// replayed frames cannot land on pre-restore state.
	sealed atomic.Bool

	// resetHook, when set (tests only), runs inside ResetPeer after the
	// rebuilt queue exists and before it is installed — the window in which
	// a sender is free to run an iteration against the peer's old state.
	resetHook func()
}

func newRemoteNet(r *Runtime, cfg *ShardConfig) *remoteNet {
	n := &remoteNet{
		r:      r,
		cfg:    cfg,
		logs:   make(map[edgeInstKey]*dataflow.OutputBuffer),
		peers:  make(map[int]*peerConn),
		edgeTo: make(map[int]*teState),
	}
	n.sealed.Store(cfg.AwaitRestore)
	for w := 0; w < cfg.Workers; w++ {
		if w == cfg.Worker {
			continue
		}
		p := &peerConn{worker: w}
		if w < len(cfg.Peers) {
			p.addr = cfg.Peers[w]
		}
		p.cond = sync.NewCond(&p.mu)
		n.peers[w] = p
	}
	return n
}

// start launches one sender per peer.
func (n *remoteNet) start() {
	for _, p := range n.peers {
		n.r.wg.Add(1)
		go n.sender(p)
	}
}

// close wakes and terminates every sender and drops the cached transports.
func (n *remoteNet) close() {
	for _, p := range n.peers {
		p.mu.Lock()
		p.closed = true
		if p.tr != nil {
			p.tr.Close()
			p.tr = nil
		}
		p.mu.Unlock()
		p.cond.Broadcast()
	}
}

// logFor returns the send log for one (edge, instance), creating it on
// first use. Callers hold n.mu.
func (n *remoteNet) logFor(edge, inst int) *dataflow.OutputBuffer {
	k := edgeInstKey{edge, inst}
	buf, ok := n.logs[k]
	if !ok {
		buf = &dataflow.OutputBuffer{}
		n.logs[k] = buf
	}
	return buf
}

// ownerOf maps a global destination instance of an edge to its worker.
func (n *remoteNet) ownerOf(edge, inst int) int {
	return shardOwner(n.edgeTo[edge].shard.Total, n.cfg.Workers, inst)
}

// send logs one receiver-owned batch for (edge, inst) and queues it for the
// owning peer. The append to the log and the append to the queue happen
// under one lock so the queue never holds an item the log does not.
func (n *remoteNet) send(edge, inst int, items []core.Item) {
	if len(items) == 0 {
		return
	}
	owner := n.ownerOf(edge, inst)
	n.mu.Lock()
	n.logFor(edge, inst).AppendBatch(items)
	p := n.peers[owner]
	if p == nil {
		// Self-owned instances never reach send; a missing peer would be a
		// placement bug. Keep the item logged so it is not lost.
		n.mu.Unlock()
		return
	}
	p.mu.Lock()
	p.queue = append(p.queue, outEntry{edge: edge, inst: inst, items: items})
	p.mu.Unlock()
	n.pending.Add(int64(len(items)))
	n.mu.Unlock()
	p.cond.Signal()
}

// sender is the per-peer transmission loop: take the queue head, push it as
// one RemoteEmit frame, pop on ack. Any error — link down, peer
// backpressured, peer mid-restore — is retried with backoff until the item
// is acked or the runtime stops; receiver dedup makes the ambiguous cases
// safe. The queue generation decides whether the head may be popped: a peer
// reset mid-Call rebuilt the queue from the logs, and the in-flight entry
// is already re-queued.
func (n *remoteNet) sender(p *peerConn) {
	defer n.r.wg.Done()
	backoff := time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	wait := func() bool {
		select {
		case <-n.r.stopped:
			return false
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		return true
	}
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		ent := p.queue[0]
		gen := p.gen
		tr := p.tr
		addr := p.addr
		p.mu.Unlock()

		if tr == nil {
			if addr == "" {
				// Peer address unknown (worker down, no Peers update yet).
				if !wait() {
					return
				}
				continue
			}
			t, err := n.cfg.Dialer(addr)
			if err != nil {
				if !wait() {
					return
				}
				continue
			}
			// The dial ran unlocked. A reset that landed meanwhile rebuilt
			// the queue, and ent is no longer its head: sending it to the
			// restored peer would lift that peer's dedup watermark past
			// every lower seq the rebuilt queue is about to re-send.
			p.mu.Lock()
			if p.closed || p.addr != addr || p.gen != gen {
				p.mu.Unlock()
				t.Close()
				continue
			}
			p.tr, tr = t, t
			p.mu.Unlock()
		}

		frame, err := wire.Encode(wire.MsgRemoteEmit, wire.RemoteEmit{Edge: ent.edge, Inst: ent.inst, Items: ent.items})
		if err != nil {
			// A value that cannot cross the wire is a programming error, the
			// same class WireCheck panics on in-process.
			panic(fmt.Sprintf("runtime: remote emit payload not wire-encodable: %v", err))
		}
		resp, err := tr.Call(frame)
		if err == nil {
			var ack wire.RemoteEmitAck
			err = decodeReply(resp, wire.MsgRemoteEmitAck, &ack)
		}
		if err != nil {
			if !errors.Is(err, cluster.ErrRemote) {
				// Link broken: drop the transport and redial next round. An
				// app-level rejection (backpressured, restoring) keeps it.
				p.mu.Lock()
				if p.tr == tr {
					tr.Close()
					p.tr = nil
				}
				p.mu.Unlock()
			}
			if !wait() {
				return
			}
			continue
		}
		backoff = time.Millisecond
		p.mu.Lock()
		if p.gen == gen && len(p.queue) > 0 {
			p.queue[0].items = nil
			p.queue = p.queue[1:]
			n.pending.Add(-int64(len(ent.items)))
		}
		p.mu.Unlock()
	}
}

// decodeReply checks a reply frame's type and decodes it.
func decodeReply(frame []byte, want byte, out any) error {
	msgType, payload, err := wire.Decode(frame)
	if err != nil {
		return err
	}
	if msgType != want {
		return fmt.Errorf("runtime: reply type 0x%02x, want 0x%02x", msgType, want)
	}
	return wire.Unmarshal(payload, out)
}

// peerQueue reconstructs a peer's send queue from the logs it owns.
// Callers hold n.mu. Entries across all of the peer's logs are merged in
// (origin, seq) order: a TE with two edges to the same destination shares
// one seq space across both logs, and replaying one log after the other
// would let the receiver's per-origin watermark drop the lower-seq tail
// for good.
//
//sdg:locked netmu
func (n *remoteNet) peerQueue(worker int) []outEntry {
	type flatEnt struct {
		edge, inst int
		it         core.Item
	}
	var ents []flatEnt
	for k, buf := range n.logs {
		if n.ownerOf(k.edge, k.inst) != worker {
			continue
		}
		for _, it := range buf.Replay() {
			ents = append(ents, flatEnt{k.edge, k.inst, it})
		}
	}
	sort.SliceStable(ents, func(i, j int) bool {
		if ents[i].it.Origin != ents[j].it.Origin {
			return ents[i].it.Origin < ents[j].it.Origin
		}
		return ents[i].it.Seq < ents[j].it.Seq
	})
	var q []outEntry
	for _, e := range ents {
		if last := len(q) - 1; last >= 0 && q[last].edge == e.edge && q[last].inst == e.inst {
			q[last].items = append(q[last].items, e.it)
			continue
		}
		q = append(q, outEntry{edge: e.edge, inst: e.inst, items: []core.Item{e.it}})
	}
	return q
}

// resetPeerLocked replaces a peer's pending queue with one rebuilt from the
// send logs — which replays everything a restarted peer may have lost — and,
// when addr is non-nil, moves the peer to that address. Callers hold n.mu.
//
// Address, transport, queue and generation change in one p.mu section.
// Split in two, a sender waking from backoff in between would pair the new
// address with the old queue's head, and the restored peer's dedup
// watermark would swallow the rebuilt queue.
//
//sdg:locked netmu
func (n *remoteNet) resetPeerLocked(p *peerConn, addr *string) {
	q := n.peerQueue(p.worker)
	if n.resetHook != nil {
		n.resetHook()
	}
	p.mu.Lock()
	if addr != nil {
		p.addr = *addr
		if p.tr != nil {
			p.tr.Close()
			p.tr = nil
		}
	}
	// Counted under p.mu: once it drops, the sender may pop q's head and
	// clear its items, which would leave pending short for good.
	n.pending.Add(queueItems(q) - queueItems(p.queue))
	p.queue = q
	p.gen++
	p.mu.Unlock()
	p.cond.Signal()
}

// ResetPeer installs a worker's (possibly new) address after recovery,
// drops the cached transport and rebuilds the pending queue from the send
// logs.
func (r *Runtime) ResetPeer(worker int, addr string) {
	n := r.net
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[worker]; p != nil {
		n.resetPeerLocked(p, &addr)
	}
}

// TrimEdgeLogs applies coordinator-distributed trim points: each entry is
// one destination instance's snapshotted dedup watermarks, below which its
// send log can never be replayed again.
func (r *Runtime) TrimEdgeLogs(trims []wire.EdgeTrimEntry) {
	n := r.net
	if n == nil {
		return
	}
	n.mu.Lock()
	for _, t := range trims {
		if buf, ok := n.logs[edgeInstKey{t.Edge, t.Inst}]; ok {
			buf.Trim(t.Watermarks)
		}
	}
	n.mu.Unlock()
}

// EdgeLogItems reports the items currently held across all cross-worker
// send logs (0 when the runtime is not sharded). Observability for tests
// and stats: after a drain + checkpoint round every log should be trimmed
// back to empty.
func (r *Runtime) EdgeLogItems() int {
	n := r.net
	if n == nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, buf := range n.logs {
		total += buf.Len()
	}
	return total
}

// RemoteDeliver is the receive side of a cut edge: a peer worker pushed a
// batch for one of our global instances. It never blocks — a destination
// over its overflow watermark rejects, the sender retries — and it enqueues
// the frame's items directly (frame ownership transfers to the receiver).
func (r *Runtime) RemoteDeliver(edge, inst int, items []core.Item) error {
	n := r.net
	if n == nil {
		return fmt.Errorf("runtime: not a sharded deployment")
	}
	if n.sealed.Load() {
		return fmt.Errorf("runtime: restoring; retry")
	}
	ts, ok := n.edgeTo[edge]
	if !ok {
		return fmt.Errorf("runtime: unknown edge %d", edge)
	}
	insts := ts.instances()
	local := inst - ts.shard.First
	if local < 0 || local >= len(insts) {
		return fmt.Errorf("runtime: instance %s/%d not owned by worker %d", ts.def.Name, inst, n.cfg.Worker)
	}
	ti := insts[local]
	if ti.overflow.Items() >= int64(r.opts.OverflowLen) {
		return fmt.Errorf("runtime: %s/%d backpressured; retry", ts.def.Name, inst)
	}
	r.enqueue(ti, items)
	return nil
}

// edgeParts captures every non-empty send log for the snapshot's consistent
// cut as bounded PartEdge stream parts, in (edge, inst) order. Long logs
// split into several parts of at most maxBytes each.
func (n *remoteNet) edgeParts(dst *[]wire.SnapPart, maxBytes int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := make([]edgeInstKey, 0, len(n.logs))
	for k := range n.logs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].edge != keys[j].edge {
			return keys[i].edge < keys[j].edge
		}
		return keys[i].inst < keys[j].inst
	})
	for _, k := range keys {
		// In place: a copy of a log would double the heap at every cut, and
		// every writer and trimmer of a send log holds n.mu anyway.
		err := n.logs[k].Read(func(items []core.Item) error {
			for len(items) > 0 {
				data, took, err := wire.EncodeItemsBounded(items, maxBytes)
				if err != nil {
					return err
				}
				*dst = append(*dst, wire.SnapPart{Kind: wire.PartEdge, Edge: k.edge, Inst: k.inst, Data: data})
				items = items[took:]
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// deliverRemote routes one flushed batch over a cut edge: the local slice
// of the destination keeps the in-process fast path, everything else is
// logged and queued per owning peer. Called from deliverBatch; items is
// caller-owned scratch exactly as there. A nil net delivers the local
// slice alone: a restore re-delivering its backlog, whose remote copies
// the rebuilt send queues carry.
func (r *Runtime) deliverRemote(e *edgeRT, items []core.Item, rs *routeScratch, net *remoteNet) {
	ts := e.to
	insts := ts.instances()
	first, cnt, total := ts.shard.First, ts.shard.Count, ts.shard.Total
	switch e.def.Dispatch {
	case core.DispatchOneToAll:
		// Every remote instance counts as live: instance-level kills do not
		// exist in sharded mode (a worker fails whole and is replayed), so
		// Parts = local live + remote total keeps gather waves exact.
		if cap(rs.dsts) < len(insts) {
			rs.dsts = make([]*teInstance, 0, len(insts))
		}
		rs.dsts = rs.dsts[:0]
		for _, dst := range insts {
			if !dst.killed.Load() && !dst.node.Failed() {
				rs.dsts = append(rs.dsts, dst)
			}
		}
		parts := len(rs.dsts) + (total - cnt)
		for _, dst := range rs.dsts {
			b := make([]core.Item, len(items))
			copy(b, items)
			for i := range b {
				b[i].Parts = parts
			}
			r.enqueue(dst, b)
		}
		for i := range rs.dsts {
			rs.dsts[i] = nil
		}
		for g := 0; g < total && net != nil; g++ {
			if g >= first && g < first+cnt {
				continue
			}
			b := make([]core.Item, len(items))
			copy(b, items)
			for i := range b {
				b[i].Parts = parts
			}
			net.send(e.remote.idx, g, b)
		}
	case core.DispatchOneToAny:
		// Prefer a local destination — same least-loaded policy as the
		// in-process path, without paying a network hop. Workers with no
		// local slice rotate across the remote instances.
		var best *teInstance
		var bestLen int64
		for _, dst := range insts {
			if dst.killed.Load() || dst.node.Failed() {
				continue
			}
			if q := dst.queued.Load(); best == nil || q < bestLen {
				best, bestLen = dst, q
			}
		}
		b := make([]core.Item, len(items))
		copy(b, items)
		if best != nil {
			r.enqueue(best, b)
			return
		}
		if net == nil {
			return
		}
		k := int((e.remote.rr.Add(1) - 1) % uint64(total-cnt))
		g := k
		if k >= first {
			g = k + cnt
		}
		net.send(e.remote.idx, g, b)
	default:
		// Partitioned and all-to-one: route against the *global* instance
		// count so every worker (and the in-process reference runtime)
		// agrees on the destination of each key.
		rs.targets = e.router.RouteBatch(items, total, rs.targets[:0])
		if cap(rs.counts) < total {
			rs.counts = make([]int, total)
			rs.batches = make([][]core.Item, total)
		}
		rs.counts = rs.counts[:total]
		rs.batches = rs.batches[:total]
		for i := range rs.counts {
			rs.counts[i] = 0
		}
		for _, t := range rs.targets {
			rs.counts[t]++
		}
		for g, cntG := range rs.counts {
			rs.batches[g] = nil
			if cntG == 0 {
				continue
			}
			if li := g - first; li >= 0 && li < len(insts) {
				dst := insts[li]
				if dst.killed.Load() || dst.node.Failed() {
					continue // dropped; upstream buffers replay after recovery
				}
			}
			rs.batches[g] = make([]core.Item, 0, cntG)
		}
		for i, t := range rs.targets {
			if rs.batches[t] != nil {
				rs.batches[t] = append(rs.batches[t], items[i])
			}
		}
		for g, b := range rs.batches {
			if len(b) > 0 {
				if li := g - first; li >= 0 && li < len(insts) {
					r.enqueue(insts[li], b)
				} else if net != nil {
					net.send(e.remote.idx, g, b)
				}
			}
			rs.batches[g] = nil
		}
	}
}
