package runtime

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/state"
)

// startCheckpointLoop periodically checkpoints one SE instance (§6 uses a
// 10 s frequency). The loop exits when the runtime stops or the instance's
// node fails.
func (r *Runtime) startCheckpointLoop(si *seInstance) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(r.opts.Interval)
		defer ticker.Stop()
		for {
			// A long checkpoint can outlast the ticker period, leaving a
			// tick permanently pending; check for shutdown first so Stop
			// is not delayed by another full checkpoint.
			select {
			case <-r.stopped:
				return
			default:
			}
			select {
			case <-r.stopped:
				return
			case <-ticker.C:
				if si.node.Failed() || r.detached(si) {
					return
				}
				if _, err := r.CheckpointNow(si.se.def.Name, si.idx); err != nil {
					// A failed checkpoint leaves the previous epoch in
					// place; retry on the next tick.
					continue
				}
			}
		}
	}()
}

// detached reports whether the instance has been replaced (e.g. after a
// scale-up repartition or recovery).
func (r *Runtime) detached(si *seInstance) bool {
	si.se.mu.RLock()
	defer si.se.mu.RUnlock()
	return si.idx >= len(si.se.insts) || si.se.insts[si.idx] != si
}

// CheckpointNow takes one checkpoint of the named SE's instance idx using
// the configured mode, then trims upstream output buffers covered by the
// committed watermarks.
func (r *Runtime) CheckpointNow(seName string, idx int) (checkpoint.Result, error) {
	ss, err := r.se(seName)
	if err != nil {
		return checkpoint.Result{}, err
	}
	// Held for the whole checkpoint so a concurrent scale-in cannot begin
	// its destructive store rebuild between our instance fetch and our
	// BeginDirty/Save (see seState.ckptGate).
	ss.ckptGate.RLock()
	defer ss.ckptGate.RUnlock()
	ss.mu.RLock()
	if idx < 0 || idx >= len(ss.insts) {
		ss.mu.RUnlock()
		return checkpoint.Result{}, fmt.Errorf("runtime: SE %q has no instance %d", seName, idx)
	}
	si := ss.insts[idx]
	ss.mu.RUnlock()
	if r.bk == nil {
		return checkpoint.Result{}, fmt.Errorf("runtime: no backup store configured")
	}

	meta := r.buildMeta(si)
	var res checkpoint.Result
	switch r.opts.Mode {
	case checkpoint.ModeSync:
		pause := func() func() {
			mu := r.pauseFor(si.node)
			mu.Lock()
			return mu.Unlock
		}
		res, err = checkpoint.Sync(si.store, meta, r.opts.Chunks, r.bk, pause)
	default:
		if ds, ok := r.deltaEligible(si); ok {
			res, err = checkpoint.AsyncDelta(ds, meta, r.opts.Chunks, r.bk)
		} else {
			res, err = checkpoint.Async(si.store, meta, r.opts.Chunks, r.bk)
		}
	}
	if err != nil {
		return res, err
	}
	// The committed epoch anchors the chain to this instance's tracker;
	// later epochs may now be incremental.
	si.chained.Store(true)
	r.recordCheckpointWM(si, meta.Watermarks)
	r.trimUpstream(si)
	return res, nil
}

// deltaEligible decides whether the next async epoch of the instance may be
// incremental: delta checkpoints are enabled, the store tracks changed
// keys, this instance has already committed an epoch (so the backup chain
// is anchored to its tracker), and checkpoint.ShouldDelta allows it.
func (r *Runtime) deltaEligible(si *seInstance) (state.DeltaStore, bool) {
	if !r.opts.DeltaCheckpoints || !si.chained.Load() {
		return nil, false
	}
	ds, ok := si.store.(state.DeltaStore)
	if !ok || !ds.DeltaTracking() {
		return nil, false
	}
	latest, _ := r.bk.Latest(si.instName())
	if !checkpoint.ShouldDelta(latest.Chain) {
		return nil, false
	}
	return ds, true
}

// buildMeta assembles the checkpoint metadata for an SE instance: the
// watermarks, output sequence counters and output buffers of the TE
// instances colocated with it.
func (r *Runtime) buildMeta(si *seInstance) checkpoint.Meta {
	meta := checkpoint.Meta{
		SE:         si.instName(),
		Epoch:      si.epoch.Add(1),
		Watermarks: make(map[int]map[uint64]uint64),
		OutSeqs:    make(map[int]uint64),
		Buffered:   make(map[int][][]core.Item),
	}
	for _, teID := range r.graph.TEsAccessing(si.se.def.ID) {
		ts := r.tes[teID]
		ts.mu.RLock()
		if si.idx < len(ts.insts) {
			ti := ts.insts[si.idx]
			meta.Watermarks[teID] = ti.dedup.Watermarks()
			meta.OutSeqs[teID] = ti.seqCtr.Load()
			bufs := make([][]core.Item, len(ti.outBufs))
			for i, b := range ti.outBufs {
				bufs[i] = b.Replay()
			}
			meta.Buffered[teID] = bufs
		}
		ts.mu.RUnlock()
	}
	return meta
}

// recordCheckpointWM remembers, per TE, the watermarks committed by this
// instance's checkpoint; upstream trimming needs the minimum across all
// instances of the TE.
func (r *Runtime) recordCheckpointWM(si *seInstance, wms map[int]map[uint64]uint64) {
	for teID, wm := range wms {
		ts := r.tes[teID]
		ts.mu.Lock()
		if ts.ckptWM == nil {
			ts.ckptWM = make(map[int]map[uint64]uint64)
		}
		ts.ckptWM[si.idx] = wm
		ts.mu.Unlock()
	}
}

// trimUpstream drops replay-log entries that every downstream instance has
// durably covered: for each TE colocated with the SE instance, it computes
// the per-origin minimum watermark across all instance checkpoints and
// trims the matching upstream output buffers (§5: "upstream nodes can trim
// their output buffers of data items that are older than all downstream
// checkpoints").
func (r *Runtime) trimUpstream(si *seInstance) {
	for _, teID := range r.graph.TEsAccessing(si.se.def.ID) {
		ts := r.tes[teID]
		min := r.minCheckpointWM(ts)
		if min == nil {
			continue
		}
		r.trimEdgesInto(ts, min)
	}
}

// minCheckpointWM folds the per-instance checkpoint watermarks of a TE into
// the per-origin minimum. It returns nil unless every live instance has
// committed at least one checkpoint (otherwise trimming would be unsafe).
func (r *Runtime) minCheckpointWM(ts *teState) map[uint64]uint64 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if ts.ckptWM == nil || len(ts.ckptWM) < len(ts.insts) {
		return nil
	}
	var min map[uint64]uint64
	for _, ti := range ts.insts {
		wm, ok := ts.ckptWM[ti.idx]
		if !ok {
			return nil
		}
		if min == nil {
			min = make(map[uint64]uint64, len(wm))
			for o, s := range wm {
				min[o] = s
			}
			continue
		}
		// Keep only origins present in every instance's map, at the lowest
		// seq; an origin missing anywhere cannot be trimmed safely, because
		// that instance may still need its items replayed.
		for o := range min {
			s, ok := wm[o]
			if !ok {
				delete(min, o)
			} else if s < min[o] {
				min[o] = s
			}
		}
	}
	return min
}

// trimEdgesInto trims the output buffers of every upstream instance feeding
// the TE — including the external source log for entry TEs — using the
// folded watermarks.
func (r *Runtime) trimEdgesInto(ts *teState, wm map[uint64]uint64) {
	if ts.srcBuf != nil {
		ts.srcBuf.Trim(wm)
	}
	for _, e := range r.graph.InEdges(ts.def.ID) {
		from := r.tes[e.From]
		// Locate the out-edge index on the upstream TE.
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
		from.mu.RLock()
		for _, up := range from.insts {
			up.outBufs[edgeIdx].Trim(wm)
		}
		from.mu.RUnlock()
	}
}

// StartMaintenance launches a loop that bounds the replay logs feeding
// stateless TEs (which never checkpoint): their current processing
// watermarks serve as trim points. Interval defaults to the checkpoint
// interval.
func (r *Runtime) StartMaintenance(interval time.Duration) {
	if interval <= 0 {
		interval = r.opts.Interval
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stopped:
				return
			case <-ticker.C:
				for _, ts := range r.tes {
					if ts.def.Access != nil {
						continue
					}
					wm := r.minLiveWM(ts)
					if wm != nil {
						r.trimEdgesInto(ts, wm)
					}
				}
			}
		}
	}()
}

// minLiveWM folds the live dedup watermarks across a TE's instances.
func (r *Runtime) minLiveWM(ts *teState) map[uint64]uint64 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	var min map[uint64]uint64
	for _, ti := range ts.insts {
		wm := ti.dedup.Watermarks()
		if min == nil {
			min = wm
			continue
		}
		for o := range min {
			s, ok := wm[o]
			if !ok {
				delete(min, o)
			} else if s < min[o] {
				min[o] = s
			}
		}
	}
	return min
}
