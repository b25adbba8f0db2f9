package runtime

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/wire"
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
// reshape or recovery).
func (r *Runtime) detached(si *seInstance) bool {
	si.se.mu.RLock()
	defer si.se.mu.RUnlock()
	return si.idx >= len(si.se.insts) || si.se.insts[si.idx] != si
}

// CheckpointNow takes one checkpoint of the named SE's instance idx using
// the configured mode, then trims upstream output buffers covered by the
// committed watermarks.
//
// The cut pauses the instance's node: with no batch in flight, flipping
// the store dirty and capturing the colocated TE instances' watermarks,
// seq counters and out-edge logs (the worker's snapshot parts) see one
// instant. An async checkpoint resumes processing before serialising; a
// sync one stays paused until the save returns.
func (r *Runtime) CheckpointNow(seName string, idx int) (checkpoint.Result, error) {
	ss, err := r.se(seName)
	if err != nil {
		return checkpoint.Result{}, err
	}
	// Held for the whole checkpoint so a concurrent reshape cannot begin
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

	start := time.Now()
	stopWorld := r.opts.Mode == checkpoint.ModeSync
	pause := r.pauseFor(si.node)
	pause.Lock()
	paused := time.Now()
	parts, err := r.teParts(si)
	var s *checkpoint.ChunkStream
	if err == nil {
		s, err = r.bk.Open(si.store, !stopWorld && r.deltaEligible(si))
	}
	if !stopWorld || err != nil {
		pause.Unlock()
	}
	if err != nil {
		return checkpoint.Result{}, err
	}
	meta := checkpoint.Meta{SE: si.instName(), Epoch: si.epoch.Add(1), TE: encodeSnapRecords(parts)}
	res, err := r.bk.SaveStream(s, meta)
	if stopWorld {
		pause.Unlock()
		// The whole save ran inside the pause (Fig. 12).
		res.Duration, res.LockTime = time.Since(start), time.Since(paused)
	}
	if err != nil {
		return res, err
	}
	// The committed epoch anchors the chain to this instance's tracker;
	// later epochs may now be incremental.
	si.chained.Store(true)
	r.recordCheckpointWM(si, parts)
	r.trimUpstream(si)
	return res, nil
}

// teParts captures the recovery state of the TE instances colocated with
// an SE instance as snapshot parts (appendTEParts). Upstream logs stay
// until trimUpstream, because every instance of the SE checkpoints on its
// own, so the out-edge logs are copied whole, not trimmed to a backlog.
// The caller holds the instance's node paused.
func (r *Runtime) teParts(si *seInstance) ([]wire.SnapPart, error) {
	var parts []wire.SnapPart
	for _, teID := range r.graph.TEsAccessing(si.se.def.ID) {
		insts := r.tes[teID].instances()
		if si.idx >= len(insts) {
			continue
		}
		ti := insts[si.idx]
		logs := make([][]core.Item, len(ti.outBufs))
		for i, b := range ti.outBufs {
			logs[i] = b.Replay()
		}
		if err := appendTEParts(&parts, ti, logs, checkpoint.ChunkBytes); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// deltaEligible decides whether the next async epoch of the instance may be
// incremental: delta checkpoints are enabled, the store tracks changed
// keys, this instance has already committed an epoch (so the backup chain
// is anchored to its tracker), and checkpoint.ShouldDelta allows it.
func (r *Runtime) deltaEligible(si *seInstance) bool {
	if !r.opts.DeltaCheckpoints || !si.chained.Load() || !si.store.DeltaTracking() {
		return false
	}
	latest, _ := r.bk.Latest(si.instName())
	return checkpoint.ShouldDelta(latest.Chain)
}

// recordCheckpointWM remembers, per TE, the PartTE part committed by this
// instance's checkpoint; upstream trimming needs the minimum watermarks
// across all instances of the TE.
func (r *Runtime) recordCheckpointWM(si *seInstance, parts []wire.SnapPart) {
	for _, p := range parts {
		if p.Kind != wire.PartTE {
			continue
		}
		ts, err := r.te(p.Name)
		if err != nil {
			continue
		}
		ts.mu.Lock()
		if ts.ckptWM == nil {
			ts.ckptWM = make(map[int]wire.SnapPart)
		}
		ts.ckptWM[si.idx] = p
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
// the per-origin minimum (minWatermarks). It returns nil unless every live
// instance has committed at least one checkpoint (otherwise trimming would
// be unsafe).
func (r *Runtime) minCheckpointWM(ts *teState) map[uint64]uint64 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	parts := make([]wire.SnapPart, 0, len(ts.insts))
	for _, ti := range ts.insts {
		p, ok := ts.ckptWM[ti.idx]
		if !ok {
			return nil
		}
		parts = append(parts, p)
	}
	return minWatermarks(parts, ts.def.Name)
}

// trimEdgesInto trims the output buffers of every upstream instance feeding
// the TE — including the external source log for entry TEs — using the
// folded watermarks.
func (r *Runtime) trimEdgesInto(ts *teState, wm map[uint64]uint64) {
	if ts.srcBuf != nil {
		ts.srcBuf.Trim(wm)
	}
	for _, from := range r.tes {
		edges := from.edgesTo(ts)
		from.mu.RLock()
		for _, up := range from.insts {
			for _, e := range edges {
				up.outBufs[e].Trim(wm)
			}
		}
		from.mu.RUnlock()
	}
}

// edgesTo lists the indices of the TE's out-edges into dst.
func (ts *teState) edgesTo(dst *teState) []int {
	var edges []int
	for i, e := range ts.out {
		if e.to == dst {
			edges = append(edges, i)
		}
	}
	return edges
}
