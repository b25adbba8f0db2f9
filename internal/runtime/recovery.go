package runtime

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
)

// KillNode fails a cluster node: its TE instances stop consuming, items
// routed to them are dropped (to be replayed after recovery), and its SE
// instances become unreachable. This is the failure-injection entry point
// for the recovery experiments (§6.4).
func (r *Runtime) KillNode(nodeID int) {
	node := r.cl.Node(nodeID)
	node.Fail()
	for _, ts := range r.tes {
		ts.mu.Lock()
		for _, ti := range ts.insts {
			if ti.node.ID == nodeID && !ti.killed.Swap(true) {
				close(ti.dead)
			}
		}
		ts.mu.Unlock()
	}
}

// RecoveryStats reports the phases of one recovery (Fig. 11 measures their
// sum: "the time to restore the lost SE, re-process unprocessed data and
// resume processing").
type RecoveryStats struct {
	Restore       time.Duration // m-to-n chunk fetch + state reconstruction
	Replay        time.Duration // re-delivery of logged items
	Total         time.Duration
	Replayed      int // items re-delivered from upstream and own buffers
	NewNodes      int
	GatherEvicted int // permanently stuck gather waves dropped after replay
}

// Recover restores the failed instance of the named SE onto n fresh nodes
// using the latest checkpoint, recreates the colocated TE instances,
// replays the logged dataflows and resumes processing.
//
// Restoring one failed instance to n > 1 new instances (the paper's 1-to-n
// pattern, Fig. 4) is supported when the SE had a single instance; an SE
// with several instances recovers the failed one in place (n == 1).
func (r *Runtime) Recover(seName string, n int) (RecoveryStats, error) {
	start := time.Now()
	if r.opts.Shard != nil {
		// A sharded worker fails and recovers as a whole process; the
		// coordinator owns snapshot, restore and replay (RecoverWorker).
		return RecoveryStats{}, fmt.Errorf("runtime: in-process recovery is unavailable in a sharded worker")
	}
	ss, err := r.se(seName)
	if err != nil {
		return RecoveryStats{}, err
	}
	if r.bk == nil {
		return RecoveryStats{}, fmt.Errorf("runtime: no backup store configured")
	}

	ss.mu.Lock()
	failedIdx := -1
	for i, si := range ss.insts {
		if si.node.Failed() {
			failedIdx = i
			break
		}
	}
	if failedIdx < 0 {
		ss.mu.Unlock()
		return RecoveryStats{}, fmt.Errorf("runtime: SE %q has no failed instance", seName)
	}
	prior := len(ss.insts)
	if n < 1 {
		n = 1
	}
	if n > 1 && prior > 1 {
		ss.mu.Unlock()
		return RecoveryStats{}, fmt.Errorf("runtime: SE %q has %d instances; 1-to-n restore requires a single instance", seName, prior)
	}
	failed := ss.insts[failedIdx]
	ss.mu.Unlock()

	// Phase 1: m-to-n restore (Fig. 4 R1-R2), reconstruction in parallel.
	// Each recovering instance restores its base group, then replays its
	// delta groups in epoch-chain order.
	restoreStart := time.Now()
	sets, meta, err := r.bk.Restore(failed.instName(), n)
	if err != nil {
		return RecoveryStats{}, err
	}
	newNodes := make([]*cluster.Node, n)
	newInsts := make([]*seInstance, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			node := r.cl.AddNode()
			// Rebuild with the SE's own builder rather than
			// meta.StoreType: the dictionary chunk format does not depend
			// on the store's lock-stripe count, so a checkpoint restores
			// into whatever stripe count the builder picks.
			store, err := r.newStore(ss.def)
			if err != nil {
				errs[j] = fmt.Errorf("runtime: rebuild store for %q: %w", meta.SE, err)
				return
			}
			if err := checkpoint.RestoreInstance(store, sets[j]); err != nil {
				errs[j] = fmt.Errorf("runtime: restore %q: %w", meta.SE, err)
				return
			}
			idx := failedIdx
			if n > 1 {
				idx = j
			}
			newNodes[j] = node
			newInsts[j] = &seInstance{se: ss, idx: idx, node: node, store: store}
			newInsts[j].epoch.Store(meta.Epoch)
		}(j)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return RecoveryStats{}, e
		}
	}
	restoreDur := time.Since(restoreStart)

	// Swap the SE instances in.
	ss.mu.Lock()
	if n == 1 {
		ss.insts[failedIdx] = newInsts[0]
	} else {
		ss.insts = newInsts
	}
	ss.mu.Unlock()

	// Phase 2: recreate the colocated TE instances with restored recovery
	// state (dedup watermarks, seq counters), then start their workers.
	accessing := r.graph.TEsAccessing(ss.def.ID)
	for _, teID := range accessing {
		ts := r.tes[teID]
		var started []*teInstance
		ts.mu.Lock()
		// Discarded instances take their parked overflow with them (source
		// replay re-delivers those items); release their share of the
		// global parked bound so the admission fast path can go quiet
		// again. A park racing this swap only leaves the bound high —
		// harmless — never low.
		if n == 1 {
			r.parked.Add(-ts.insts[failedIdx].overflow.Items())
			ti := r.newInstance(ts, failedIdx, newNodes[0])
			restoreTE(ti, meta, teID, true)
			ts.insts[failedIdx] = ti
			started = append(started, ti)
		} else {
			for _, old := range ts.insts {
				r.parked.Add(-old.overflow.Items())
			}
			insts := make([]*teInstance, n)
			for j := 0; j < n; j++ {
				ti := r.newInstance(ts, j, newNodes[j])
				// The instance re-using the failed instance's index inherits
				// its origin identity and must continue its seq numbering;
				// fresh instances start clean.
				restoreTE(ti, meta, teID, j == failedIdx)
				insts[j] = ti
			}
			ts.insts = insts
			started = append(started, insts...)
		}
		ts.bumpInstances()
		// Checkpoint watermark bookkeeping restarts for the new layout.
		ts.ckptWM = nil
		ts.mu.Unlock()
		for _, ti := range started {
			r.startWorker(ti)
		}
	}

	// Restart the checkpoint loops for the restored instances.
	if r.opts.Mode != checkpoint.ModeOff {
		for _, si := range newInsts {
			r.startCheckpointLoop(si)
		}
	}

	// Phase 3: replay. First evict permanently stuck gather waves — waves
	// whose external caller already gave up and that replay can never
	// complete. Evicting *before* replay keeps this deterministic: evicting
	// afterwards would race the asynchronously-enqueued replayed partials,
	// which can legitimately refill a pending wave while we scan. Then
	// re-deliver the failed node's own logged output (recovered from the
	// checkpoint) and the upstream replay logs; receivers dedup.
	evicted := r.evictStaleGathers()
	replayStart := time.Now()
	replayed := 0
	var rs routeScratch
	for _, teID := range accessing {
		ts := r.tes[teID]
		for edgeIdx, bufs := range meta.Buffered[teID] {
			if edgeIdx >= len(ts.out) {
				break
			}
			if len(bufs) == 0 {
				continue
			}
			// Whole-buffer batches keep the timed replay phase off the
			// per-item delivery cost the hot path no longer pays.
			r.deliverBatch(ts.out[edgeIdx], bufs, &rs)
			replayed += len(bufs)
		}
		replayed += r.replayInto(ts)
	}
	replayDur := time.Since(replayStart)

	return RecoveryStats{
		Restore:       restoreDur,
		Replay:        replayDur,
		Total:         time.Since(start),
		Replayed:      replayed,
		NewNodes:      n,
		GatherEvicted: evicted,
	}, nil
}

// evictStaleGathers drops pending gather waves that are permanently stuck:
// request/reply waves (nonzero request id) whose Call has already returned
// or timed out. Waves for outstanding Calls and fire-and-forget waves
// (request id 0) are kept — replayed duplicates can still refill them.
func (r *Runtime) evictStaleGathers() int {
	stale := func(reqID uint64) bool {
		return reqID != 0 && !r.callWaiting(reqID)
	}
	evicted := 0
	for _, ts := range r.tes {
		if !ts.hasInAll {
			continue
		}
		for _, ti := range ts.instances() {
			if ti.gather == nil || ti.killed.Load() {
				continue
			}
			evicted += ti.gather.Evict(stale)
		}
	}
	return evicted
}

// restoreTE initialises a replacement TE instance from checkpoint metadata.
// withIdentity restores the dedup watermarks and output seq counter (for
// the instance that inherits the failed instance's origin); other instances
// still restore watermarks so replayed duplicates covered by the snapshot
// are filtered.
func restoreTE(ti *teInstance, meta checkpoint.Meta, teID int, withIdentity bool) {
	if wm, ok := meta.Watermarks[teID]; ok {
		ti.dedup.Restore(wm)
	}
	if withIdentity {
		if seq, ok := meta.OutSeqs[teID]; ok {
			ti.seqCtr.Store(seq)
		}
		if bufs, ok := meta.Buffered[teID]; ok {
			for edgeIdx, items := range bufs {
				if edgeIdx >= len(ti.outBufs) {
					break
				}
				for _, it := range items {
					ti.outBufs[edgeIdx].Append(it)
				}
			}
		}
	}
}

// replayInto re-delivers every upstream replay-log item on edges feeding
// the TE. Routing recomputes with the current instance count, so items land
// on the right (possibly re-partitioned) instances; dedup filters items the
// restored checkpoint already covers and items surviving instances have
// processed.
func (r *Runtime) replayInto(ts *teState) int {
	replayed := 0
	var rs routeScratch
	if ts.srcBuf != nil {
		// Entry routing is per item by design (the key or seq picks the
		// instance), so the source log replays item by item.
		for _, it := range ts.srcBuf.Replay() {
			r.routeToEntry(ts, it)
			replayed++
		}
	}
	for _, e := range r.graph.InEdges(ts.def.ID) {
		from := r.tes[e.From]
		edgeIdx := -1
		for i, oe := range from.out {
			if oe.def == e {
				edgeIdx = i
				break
			}
		}
		if edgeIdx < 0 {
			continue
		}
		for _, up := range from.instances() {
			if up.killed.Load() {
				continue
			}
			// Replay() returns a caller-owned copy, so the whole buffer can
			// go through the batch path in one call.
			if items := up.outBufs[edgeIdx].Replay(); len(items) > 0 {
				r.deliverBatch(from.out[edgeIdx], items, &rs)
				replayed += len(items)
			}
		}
	}
	return replayed
}

// Drain blocks until all instance queues are empty and processing has
// quiesced, or the timeout elapses. Experiments use it to measure full
// recovery (including re-processing).
func (r *Runtime) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.quiet() {
			// Double-check after a settle delay: emissions may be in flight.
			time.Sleep(2 * time.Millisecond)
			if r.quiet() {
				return true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

func (r *Runtime) quiet() bool {
	// Items logged for a peer worker but not yet acked are still in flight:
	// a drain that ignored them would let a coordinator checkpoint cut with
	// items on the wire.
	if r.net != nil && r.net.pending.Load() > 0 {
		return false
	}
	for _, ts := range r.tes {
		for _, ti := range ts.instances() {
			// queued covers both queued batches and the batch currently
			// being processed (workers decrement only after the flush), so
			// quiescence here implies emissions have propagated downstream.
			if !ti.killed.Load() && ti.queued.Load() > 0 {
				return false
			}
		}
	}
	return true
}
