package runtime

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/state"
	"repro/internal/wire"
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
			if ti.node.ID == nodeID {
				ti.kill()
			}
		}
		ts.mu.Unlock()
	}
}

// kill stops the instance's worker at its next chunk. Idempotent.
func (ti *teInstance) kill() {
	if !ti.killed.Swap(true) {
		close(ti.dead)
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
// replays the logged dataflows and resumes processing. It restores the
// way a worker does: the SE chunks through applyChunks, the TE state
// through applyTEPart, the logs through redeliverBacklog.
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

	// The failed instance's TE workers stop within one chunk. Wait for
	// them: a batch of theirs still running after the swap below would
	// write into the restored store, and replay would apply it again.
	accessing := r.graph.TEsAccessing(ss.def.ID)
	for _, teID := range accessing {
		for _, ti := range r.tes[teID].instances() {
			if ti.idx == failedIdx {
				ti.kill()
				<-ti.exited
			}
		}
	}

	// Phase 1: m-to-n restore (Fig. 4 R1-R2), reconstruction in parallel.
	// Each recovering instance restores its base group, then replays its
	// delta groups in epoch-chain order.
	restoreStart := time.Now()
	sets, meta, err := r.bk.Restore(failed.instName(), n)
	if err != nil {
		return RecoveryStats{}, err
	}
	parts, err := decodeSnapRecords(meta.TE)
	if err != nil {
		return RecoveryStats{}, fmt.Errorf("runtime: restore %q: %w", meta.SE, err)
	}
	newInsts := make([]*seInstance, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// Rebuild with the SE's own builder rather than
			// meta.StoreType: the dictionary chunk format does not depend
			// on the store's lock-stripe count, so a checkpoint restores
			// into whatever stripe count the builder picks.
			store, err := r.newStore(ss.def)
			if err != nil {
				errs[j] = fmt.Errorf("runtime: rebuild store for %q: %w", meta.SE, err)
				return
			}
			for _, cks := range append([][]state.Chunk{sets[j].Base}, sets[j].Deltas...) {
				if err := applyChunks(store, cks); err != nil {
					errs[j] = fmt.Errorf("runtime: restore %q: %w", meta.SE, err)
					return
				}
			}
			// n > 1 only replaces a single instance 0.
			newInsts[j] = &seInstance{se: ss, idx: failedIdx + j, store: store}
			newInsts[j].epoch.Store(meta.Epoch)
		}(j)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return RecoveryStats{}, e
		}
	}

	// Phase 2: the colocated TE instances, n per TE, restored from the
	// checkpoint's TE parts before anything is swapped in. The instance at
	// the failed index inherits its origin identity: watermarks, seq
	// counter and out-edge logs. The others take only the watermarks, so
	// replayed duplicates the snapshot covers are filtered.
	restored := make([]*teInstance, 0, n*len(accessing))
	for _, teID := range accessing {
		ts := r.tes[teID]
		ts.mu.RLock()
		for _, si := range newInsts {
			restored = append(restored, r.newInstance(ts, si.idx, nil))
		}
		ts.mu.RUnlock()
	}
	for i := range parts {
		p := &parts[i]
		for _, ti := range restored {
			switch {
			case ti.te.def.Name != p.Name:
			case ti.idx == p.Index:
				if err := ti.applyTEPart(p); err != nil {
					return RecoveryStats{}, err
				}
			case p.Kind == wire.PartTE:
				ti.dedup.Restore(p.Watermarks)
			}
		}
	}
	// Everything restored: only now place the instances on n fresh nodes,
	// so a recovery that fails above leaves the cluster as it was.
	for _, si := range newInsts {
		si.node = r.cl.AddNode()
	}
	for k, ti := range restored {
		ti.node = newInsts[k%n].node
	}
	restoreDur := time.Since(restoreStart)

	// Swap the SE instances in, then the TE instances.
	ss.mu.Lock()
	ss.insts = slices.Replace(ss.insts, failedIdx, failedIdx+1, newInsts...)
	ss.mu.Unlock()
	for k, teID := range accessing {
		ts := r.tes[teID]
		ts.mu.Lock()
		// The discarded instance takes its parked overflow with it (source
		// replay re-delivers those items); release its share of the
		// global parked bound so the admission fast path can go quiet
		// again. A park racing this swap only leaves the bound high —
		// harmless — never low.
		r.parked.Add(-ts.insts[failedIdx].overflow.Items())
		ts.insts = slices.Replace(ts.insts, failedIdx, failedIdx+1, restored[k*n:(k+1)*n]...)
		ts.bumpInstances()
		// Checkpoint watermark bookkeeping restarts for the new layout.
		ts.ckptWM = nil
		ts.mu.Unlock()
	}

	// Phase 3: replay. First evict permanently stuck gather waves — waves
	// whose external caller already gave up and that replay can never
	// complete. Evicting *before* replay keeps this deterministic: evicting
	// afterwards would race the asynchronously-enqueued replayed partials,
	// which can legitimately refill a pending wave while we scan. Then
	// re-deliver the restored out-edge logs in seq order, before the
	// restored workers start, so no newer emission of theirs reaches a
	// destination ahead of them; then the upstream replay logs. Receivers
	// dedup.
	evicted := r.evictStaleGathers()
	replayStart := time.Now()
	replayed := r.redeliverBacklog(restored)
	for _, ti := range restored {
		r.startWorker(ti)
	}
	if r.opts.Mode != checkpoint.ModeOff {
		for _, si := range newInsts {
			r.startCheckpointLoop(si)
		}
	}
	for _, teID := range accessing {
		replayed += r.replayInto(r.tes[teID])
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

// replayInto re-delivers every upstream replay-log item on edges feeding
// the TE, each live upstream instance's edges merged in seq order
// (redeliver). Routing recomputes with the current instance count, so
// items land on the right (possibly re-partitioned) instances; dedup
// filters items the restored checkpoint already covers and items
// surviving instances have processed.
func (r *Runtime) replayInto(ts *teState) int {
	replayed := 0
	if ts.srcBuf != nil {
		// Entry routing is per item by design (the key or seq picks the
		// instance), so the source log replays item by item.
		for _, it := range ts.srcBuf.Replay() {
			r.routeToEntry(ts, it)
			replayed++
		}
	}
	var rs routeScratch
	for _, from := range r.tes {
		edges := from.edgesTo(ts)
		if len(edges) == 0 {
			continue
		}
		for _, up := range from.instances() {
			if !up.killed.Load() {
				replayed += r.redeliver(up, edges, &rs)
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
