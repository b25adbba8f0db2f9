package runtime

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/state"
	"repro/internal/wire"
)

// This file is the worker half of the snapshot transfer: cutting a
// consistent snapshot whose state leaves the node chunk by chunk, never as
// one materialised whole, and applying a restore the same way. The cut
// pauses processing, but only long enough to flip every SE store dirty and
// capture the small TE/edge metadata — the state bytes then stream out of
// the frozen bases while processing continues against the overlays, which
// is what keeps the frame cap from being a ceiling on per-worker state.
//
// Every capture is one epoch of a checkpoint chain the coordinator retains
// (DESIGN.md "Distributed checkpoint chain"): per SE instance it serves
// either a full base or only the keys changed since the epoch the
// coordinator last retained. The changed-key cut a capture opens is settled
// by the next SnapBegin, not by the end of the stream — only then does the
// worker know whether the coordinator kept the epoch.

// maxSnapChunkBytes caps what a peer may request: well under the frame cap
// so envelope, part header and one oversized entry still fit.
const maxSnapChunkBytes = cluster.MaxFrameSize / 4

// seStream is one SE instance's open streaming checkpoint.
type seStream struct {
	si *seInstance
	cs *checkpoint.ChunkStream
}

// snapDelta decides whether the instance's next epoch is incremental. It
// is a base when the coordinator retains no epoch of this instance (fresh
// deploy, or just restored), when the store is not tracking changed keys
// yet, and when a delta would not be smaller: more than half the keys
// changed, so tombstones and per-key overhead make the delta the larger
// stream and every later restore the slower one. A chain that grows long is the
// coordinator's to compact (compactChains), never a reason to re-ship a
// base.
//
// A store starts tracking here, at its first epoch, not at deploy: until
// something is retained there is nothing for a delta to extend, and
// recording a preload or a restore key by key would cost time and memory
// for nothing. The caller holds the processing pause, so tracking starts
// exactly at the cut.
func (si *seInstance) snapDelta() bool {
	st := si.store
	if !st.DeltaTracking() {
		st.EnableDeltaTracking()
		return false
	}
	return si.chained.Load() && st.DeltaSize()*2 <= st.NumEntries()
}

// snapCapture is an open snapshot stream over one runtime: the eagerly
// captured TE metadata, local-backlog and edge-log parts, plus one lazy
// checkpoint stream per SE instance. Parts are served queue first, then
// store by store; each store merges its dirty overlay back the moment its
// stream drains, so no store stays dirty for the whole transfer.
type snapCapture struct {
	r     *Runtime
	queue []wire.SnapPart
	ses   []*seStream
	cur   int

	maxBytes int
	bytes    uint64
	parts    uint64
	closed   bool
}

// appendItemParts splits items into bounded EncodeItems blobs, one part
// each.
func appendItemParts(dst *[]wire.SnapPart, tmpl wire.SnapPart, items []core.Item, maxBytes int) error {
	for len(items) > 0 {
		data, took, err := wire.EncodeItemsBounded(items, maxBytes)
		if err != nil {
			return err
		}
		p := tmpl
		p.Data = data
		*dst = append(*dst, p)
		items = items[took:]
	}
	return nil
}

// appendTEParts appends one TE instance's recovery state as snapshot parts:
// a PartTE with its input watermarks and output seq counter, then logs[i],
// the items of out-edge i a restore re-delivers, as bounded PartTEBuf
// parts. The caller holds the instance's node paused, so the watermarks,
// the counter, the logs and the state cut at one instant.
func appendTEParts(dst *[]wire.SnapPart, ti *teInstance, logs [][]core.Item, maxBytes int) error {
	name := ti.te.def.Name
	*dst = append(*dst, wire.SnapPart{Kind: wire.PartTE, Name: name, Index: ti.idx,
		Watermarks: ti.dedup.Watermarks(), OutSeq: ti.seqCtr.Load()})
	for i, items := range logs {
		tmpl := wire.SnapPart{Kind: wire.PartTEBuf, Name: name, Index: ti.idx, Edge: i}
		if err := appendItemParts(dst, tmpl, items, maxBytes); err != nil {
			return fmt.Errorf("runtime: snapshot %s/%d edge %d: %w", name, ti.idx, i, err)
		}
	}
	return nil
}

// trimToBacklog trims one out-edge log, under the cut's pause, to the
// items a local destination instance has not processed yet, and returns
// them: the local backlog a restore re-delivers. The rest can never be
// needed again — processed items live on in the captured stores, and
// remote-bound ones in the PartEdge send logs. A one-to-any log does not
// say which local instance took an item, so the item keeps while any of
// them lags its seq, and with several local instances its re-delivery may
// process it twice.
func (r *Runtime) trimToBacklog(e *edgeRT, b *dataflow.OutputBuffer, rs *routeScratch) []core.Item {
	insts := e.to.instances()
	first, total := 0, len(insts)
	if e.remote != nil {
		first, total = e.to.shard.First, e.to.shard.Total
	}
	wms := make([]map[uint64]uint64, len(insts))
	for i, dst := range insts {
		wms[i] = dst.dedup.Watermarks()
	}
	routed := e.def.Dispatch != core.DispatchOneToAll && e.def.Dispatch != core.DispatchOneToAny
	var backlog []core.Item
	b.Rewrite(func(items []core.Item) []core.Item {
		if routed {
			rs.targets = e.router.RouteBatch(items, total, rs.targets[:0])
		}
		kept := items[:0]
		for i, it := range items {
			lo, hi := 0, len(insts)
			if routed {
				lo = max(rs.targets[i]-first, 0)
				hi = min(rs.targets[i]-first+1, len(insts))
			}
			for li := lo; li < hi; li++ {
				if wms[li][it.Origin] < it.Seq {
					kept = append(kept, it)
					break
				}
			}
		}
		backlog = slices.Clone(kept)
		return kept
	})
	return backlog
}

// newSnapCapture cuts a consistent snapshot and returns the open stream.
// The pause covers only the cut: flipping every SE store into dirty mode,
// capturing TE watermarks and cross-worker edge logs, and trimming the
// out-edge logs to their local backlog.
func (r *Runtime) newSnapCapture(maxBytes int) (*snapCapture, error) {
	if maxBytes <= 0 || maxBytes > maxSnapChunkBytes {
		maxBytes = checkpoint.ChunkBytes
	}
	c := &snapCapture{r: r, maxBytes: maxBytes}
	unpause := r.pauseAll()
	defer unpause()

	fail := func(err error) (*snapCapture, error) {
		c.close()
		c.settle(false)
		return nil, err
	}
	for _, ss := range r.ses {
		ss.mu.RLock()
		insts := append([]*seInstance(nil), ss.insts...)
		ss.mu.RUnlock()
		for _, si := range insts {
			var cs *checkpoint.ChunkStream
			var err error
			if si.snapDelta() {
				cs, err = checkpoint.StreamAsyncDelta(si.store, maxBytes)
			} else {
				cs, err = checkpoint.StreamAsync(si.store, maxBytes)
			}
			if err != nil {
				return fail(fmt.Errorf("runtime: snapshot %s: %w", si.instName(), err))
			}
			c.ses = append(c.ses, &seStream{si: si, cs: cs})
		}
	}
	var rs routeScratch
	for _, ts := range r.tes {
		for _, ti := range ts.instances() {
			logs := make([][]core.Item, len(ti.outBufs))
			for i, b := range ti.outBufs {
				logs[i] = r.trimToBacklog(ts.out[i], b, &rs)
			}
			if err := appendTEParts(&c.queue, ti, logs, maxBytes); err != nil {
				return fail(err)
			}
		}
	}
	if r.net != nil {
		if err := r.net.edgeParts(&c.queue, maxBytes); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// next returns the stream's next part, ok=false at end of stream. The
// metadata queue drains first, then each SE store in declaration order;
// stores merge their overlay back (ChunkStream.Close) as they drain.
func (c *snapCapture) next() (wire.SnapPart, bool, error) {
	if c.closed {
		return wire.SnapPart{}, false, fmt.Errorf("runtime: snapshot stream closed")
	}
	if len(c.queue) > 0 {
		p := c.queue[0]
		c.queue[0] = wire.SnapPart{}
		c.queue = c.queue[1:]
		c.parts++
		c.bytes += uint64(len(p.Data))
		return p, true, nil
	}
	for c.cur < len(c.ses) {
		s := c.ses[c.cur]
		ck, ok, err := s.cs.Next()
		if err != nil {
			return wire.SnapPart{}, false, fmt.Errorf("runtime: snapshot %s: %w", s.si.instName(), err)
		}
		if !ok {
			if err := s.cs.Close(); err != nil {
				return wire.SnapPart{}, false, fmt.Errorf("runtime: snapshot %s: %w", s.si.instName(), err)
			}
			c.cur++
			continue
		}
		c.parts++
		c.bytes += uint64(len(ck.Data))
		return sePart(s.si.se.def.Name, s.si.idx, ck), true, nil
	}
	return wire.SnapPart{}, false, nil
}

// sePart wraps one checkpoint chunk of SE instance name/index as a part.
func sePart(name string, index int, ck state.Chunk) wire.SnapPart {
	return wire.SnapPart{Kind: wire.PartSE, Name: name, Index: index, Store: ck.Type,
		ChunkIndex: ck.Index, ChunkOf: ck.Of, Delta: ck.Delta, Data: ck.Data}
}

// applySEPart applies one PartSE part to st (applyChunks).
func applySEPart(st state.Store, p *wire.SnapPart) error {
	return applyChunks(st, []state.Chunk{{Type: p.Store, Index: p.ChunkIndex, Of: p.ChunkOf, Delta: p.Delta, Data: p.Data}})
}

// applyChunks applies chunks of one epoch to st: base chunks restore, delta
// chunks replay onto what is restored so far. Epochs apply in chain order.
func applyChunks(st state.Store, cks []state.Chunk) error {
	if len(cks) > 0 && cks[0].Delta {
		return st.ApplyDelta(cks)
	}
	return st.Restore(cks)
}

// close releases the capture: every still-open store stream merges its
// overlay back. Idempotent. The changed-key cuts stay open until settle.
func (c *snapCapture) close() {
	if c.closed {
		return
	}
	c.closed = true
	for ; c.cur < len(c.ses); c.cur++ {
		_ = c.ses[c.cur].cs.Close()
	}
	c.queue = nil
}

// settle resolves the capture's changed-key cuts once the epoch's fate is
// known. Retained: the cuts commit and every instance now has an epoch at
// the coordinator to extend. Not retained: the cuts fold back, so the next
// epoch covers the same keys again and nothing is lost however late the
// pull died. Idempotent.
func (c *snapCapture) settle(retained bool) {
	for _, s := range c.ses {
		if retained {
			s.cs.Commit()
			s.si.chained.Store(true)
		} else {
			s.cs.Abort()
		}
	}
}

// beginRestoreStream prepares the runtime for a chunk-by-chunk restore:
// the cross-worker edge logs reset so restored PartEdge chunks rebuild
// them from scratch. The restore seal (AwaitRestore) stays up until
// finishRestoreStream.
func (r *Runtime) beginRestoreStream() {
	if r.net == nil {
		return
	}
	n := r.net
	n.mu.Lock()
	n.logs = make(map[edgeInstKey]*dataflow.OutputBuffer)
	n.mu.Unlock()
}

// applySnapPart applies one restored part. Parts may arrive in any order
// except that an SE instance's base parts precede its delta parts and
// those arrive in epoch order; backlog and edge-log parts append, so the
// coordinator must deliver each exactly once (the worker's seq protocol
// enforces that).
func (r *Runtime) applySnapPart(p wire.SnapPart) error {
	switch p.Kind {
	case wire.PartSE:
		ss, err := r.se(p.Name)
		if err != nil {
			return err
		}
		ss.mu.RLock()
		if p.Index < 0 || p.Index >= len(ss.insts) {
			n := len(ss.insts)
			ss.mu.RUnlock()
			return fmt.Errorf("runtime: snapshot SE %s/%d out of range (have %d instances)", p.Name, p.Index, n)
		}
		si := ss.insts[p.Index]
		ss.mu.RUnlock()
		if err := applySEPart(si.store, &p); err != nil {
			return fmt.Errorf("runtime: restore %s: %w", si.instName(), err)
		}
	case wire.PartTE, wire.PartTEBuf:
		ti, err := r.teInstanceAt(p.Name, p.Index)
		if err != nil {
			return err
		}
		return ti.applyTEPart(&p)
	case wire.PartEdge:
		if r.net == nil {
			return fmt.Errorf("runtime: not a sharded deployment")
		}
		items, err := wire.DecodeItems(p.Data)
		if err != nil {
			return fmt.Errorf("runtime: edge log %d/%d: %w", p.Edge, p.Inst, err)
		}
		n := r.net
		n.mu.Lock()
		n.logFor(p.Edge, p.Inst).AppendBatch(items)
		n.mu.Unlock()
	default:
		return fmt.Errorf("runtime: unknown snapshot part kind %d", p.Kind)
	}
	return nil
}

// applyTEPart restores one PartTE or PartTEBuf part into ti: the input
// watermarks and output seq counter, or a slice of out-edge Edge's log.
func (ti *teInstance) applyTEPart(p *wire.SnapPart) error {
	if p.Kind == wire.PartTE {
		ti.dedup.Restore(p.Watermarks)
		ti.seqCtr.Store(p.OutSeq)
		return nil
	}
	if p.Edge < 0 || p.Edge >= len(ti.outBufs) {
		return fmt.Errorf("runtime: restore %s/%d: edge %d out of range (have %d)", p.Name, p.Index, p.Edge, len(ti.outBufs))
	}
	items, err := wire.DecodeItems(p.Data)
	if err != nil {
		return fmt.Errorf("runtime: restore %s/%d edge %d: %w", p.Name, p.Index, p.Edge, err)
	}
	ti.outBufs[p.Edge].AppendBatch(items)
	return nil
}

// finishRestoreStream completes a chunk-by-chunk restore: the restored
// local backlog is re-delivered, peer send queues rebuild from the restored
// edge logs, and the restore seal lifts. Nothing the cut logged is emitted
// again (seq counters restore to OutSeq), so these two re-send it all and
// receivers dedup what they already processed. The coordinator injects
// nothing until RestoreEnd is acked, so the backlog reaches every
// destination queue ahead of any newer seq.
func (r *Runtime) finishRestoreStream() {
	var insts []*teInstance
	for _, ts := range r.tes {
		insts = append(insts, ts.instances()...)
	}
	r.redeliverBacklog(insts)
	if r.net == nil {
		return
	}
	n := r.net
	n.mu.Lock()
	for _, p := range n.peers {
		n.resetPeerLocked(p, nil)
	}
	n.mu.Unlock()
	n.sealed.Store(false)
}

// redeliverBacklog routes every restored out-edge log item of the given
// instances (redeliver) and returns how many items it routed.
func (r *Runtime) redeliverBacklog(insts []*teInstance) int {
	var rs routeScratch
	n := 0
	for _, ti := range insts {
		n += r.redeliver(ti, nil, &rs)
	}
	return n
}

// redeliver routes the items ti logged on the given out-edges (every edge
// when nil) to the local instances they are bound for; remote copies come
// back through the rebuilt send queues. The items go out in seq order
// across the edges: two edges into one TE share the instance's seq space,
// and a lower seq arriving behind a higher one would be dropped as a
// duplicate.
func (r *Runtime) redeliver(ti *teInstance, edges []int, rs *routeScratch) int {
	type edgeItem struct {
		edge int
		it   core.Item
	}
	var all []edgeItem
	for e, b := range ti.outBufs {
		if edges == nil || slices.Contains(edges, e) {
			for _, it := range b.Replay() {
				all = append(all, edgeItem{e, it})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].it.Seq < all[j].it.Seq })
	var run []core.Item
	for i, ei := range all {
		if run = append(run, ei.it); i+1 < len(all) && all[i+1].edge == ei.edge {
			continue
		}
		if e := ti.te.out[ei.edge]; e.remote != nil {
			r.deliverRemote(e, run, rs, nil)
		} else {
			r.deliverBatch(e, run, rs)
		}
		run = run[:0]
	}
	return len(all)
}

// teInstanceAt resolves one TE instance by worker-local index.
func (r *Runtime) teInstanceAt(name string, index int) (*teInstance, error) {
	ts, err := r.te(name)
	if err != nil {
		return nil, err
	}
	insts := ts.instances()
	if index < 0 || index >= len(insts) {
		return nil, fmt.Errorf("runtime: snapshot TE %s/%d out of range (have %d instances)", name, index, len(insts))
	}
	return insts[index], nil
}

// OutBufItems reports the items currently buffered across every TE
// instance's per-edge output buffers — observability for the trim a
// snapshot cut applies.
func (r *Runtime) OutBufItems() int {
	total := 0
	for _, ts := range r.tes {
		for _, ti := range ts.instances() {
			for _, b := range ti.outBufs {
				total += b.Len()
			}
		}
	}
	return total
}
