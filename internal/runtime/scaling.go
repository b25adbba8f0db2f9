package runtime

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
)

// ScaleUp adds one instance to the named TE (§3.3: "the runtime system
// changes the number of TE instances in response to stragglers"). The
// effect depends on the TE's state:
//
//   - stateless TE: a new instance starts on a fresh node;
//   - partial SE: a new empty replica is created on a fresh node, and every
//     TE accessing the SE gains an instance there (the paper's Fig. 10:
//     "a second instance is added ... which also causes a new instance of
//     the partial state in the coOcc matrix to be created");
//   - partitioned SE: the SE is re-partitioned from k to k+1 instances by
//     ScaleDown's protocol run the other way — ingress is fenced and the
//     graph drains, the partitions are rebuilt, ingress reopens on k+1
//     nodes and every instance anchors a fresh base checkpoint.
//
// Growing a partitioned SE fails if any accessing instance is killed or on
// a failed node (recover first), if the graph does not quiesce within 30s
// (ErrNotQuiesced), or if a partition is held dirty (state.ErrDirtyActive).
func (r *Runtime) ScaleUp(teName string) error {
	return r.scaleUp(teName, scaleDrainTimeout)
}

// scaleUp is ScaleUp with an explicit quiesce budget for the partitioned
// case; the auto-scaler passes a scan-window-sized budget.
func (r *Runtime) scaleUp(teName string, drain time.Duration) error {
	if r.opts.Shard != nil {
		// Instance identities are global in a sharded deployment; the worker
		// cannot unilaterally grow its slice without every peer re-agreeing
		// on routing, and no coordinator-driven scale-out exists yet (see
		// ROADMAP item 13).
		return fmt.Errorf("runtime: in-process scaling is unavailable in a sharded worker")
	}
	ts, err := r.te(teName)
	if err != nil {
		return err
	}
	r.scaleMu.Lock()
	defer r.scaleMu.Unlock()
	if ts.def.Access == nil {
		r.startWorker(r.appendInstance(ts, r.cl.AddNode()))
		return nil
	}
	ss := r.ses[ts.def.Access.SE]
	switch ss.def.Kind {
	case core.KindPartial:
		return r.growPartial(ss)
	case core.KindPartitioned:
		return r.reshapePartitioned(ss, +1, drain)
	default:
		return fmt.Errorf("runtime: unknown state kind %v", ss.def.Kind)
	}
}

// appendInstance adds an instance on node at the TE's next index (built,
// not started) and bumps the snapshot epoch. Checkpoint-watermark trim
// bookkeeping restarts, because it must now cover the new instance too.
func (r *Runtime) appendInstance(ts *teState, node *cluster.Node) *teInstance {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ti := r.newInstance(ts, len(ts.insts), node)
	ts.insts = append(ts.insts, ti)
	ts.bumpInstances()
	ts.ckptWM = nil
	return ti
}

// growPartial adds one partial replica and the matching TE instances. New
// replicas start empty and accumulate independently, consistent with
// partial SE semantics (instances are reconciled by merge computation, not
// kept identical).
func (r *Runtime) growPartial(ss *seState) error {
	node := r.cl.AddNode()
	store, err := r.newStore(ss.def)
	if err != nil {
		return err
	}
	ss.mu.Lock()
	si := &seInstance{se: ss, idx: len(ss.insts), node: node, store: store}
	ss.insts = append(ss.insts, si)
	ss.mu.Unlock()

	for _, teID := range r.graph.TEsAccessing(ss.def.ID) {
		r.startWorker(r.appendInstance(r.tes[teID], node))
	}
	if r.opts.Mode != 0 && r.bk != nil {
		r.startCheckpointLoop(si)
	}
	return nil
}

// reshard rebuilds a partitioned SE's state onto n fresh stores the way
// Recover rebuilds a failed instance from its backup: every old store's
// base streams as checkpoint chunks, each chunk splits n ways by
// PartitionKey, and piece j restores into store j. Scale-out (k→k+1) and
// scale-in (k→k−1) both use it, because the partition function changes
// for every key on a rescale, not just for the keys of the added or
// retired partition. It only reads the old stores, so an error leaves the
// SE as it was. The caller holds the stores still — a quiesced ingress
// fence — and the SE's checkpoint gate, so no checkpoint can hold a store
// dirty; one held dirty out of band is refused with state.ErrDirtyActive
// before anything is built.
func (r *Runtime) reshard(ss *seState, old []*seInstance, n int) ([]state.Store, error) {
	for _, si := range old {
		if si.store.Dirty() {
			return nil, fmt.Errorf("runtime: SE %q instance %d: %w", ss.def.Name, si.idx, state.ErrDirtyActive)
		}
	}
	stores := make([]state.Store, n)
	for j := range stores {
		st, err := r.newStore(ss.def)
		if err != nil {
			return nil, err
		}
		stores[j] = st
	}
	for _, si := range old {
		if err := splitInto(stores, si.store); err != nil {
			return nil, fmt.Errorf("runtime: reshard SE %q instance %d: %w", ss.def.Name, si.idx, err)
		}
	}
	return stores, nil
}

// splitInto streams src's base as checkpoint chunks, splits each chunk
// len(dst) ways and restores piece j into dst[j].
func splitInto(dst []state.Store, src state.Store) error {
	it, err := state.StreamChunks(src, checkpoint.ChunkBytes)
	if err != nil {
		return err
	}
	for {
		c, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		pieces, err := state.SplitChunk(c, len(dst))
		if err != nil {
			return err
		}
		for j, p := range pieces {
			if err := dst[j].Restore([]state.Chunk{p}); err != nil {
				return err
			}
		}
	}
}

// ScalePolicy tunes the reactive bottleneck/straggler detector.
type ScalePolicy struct {
	// QueueHighWater: a TE whose summed parked-overflow depth (items that
	// found the inbound queue full and parked in the lossless overflow)
	// stays above this threshold is a bottleneck. Parked items are the
	// primary backpressure signal: senders only park once the channel is
	// out of slots, so any sustained depth means the TE cannot keep up.
	QueueHighWater int
	// QueueLowWater: a watched TE whose summed backlog (queued + parked +
	// in-flight items) stays at or below this threshold for ShrinkAfter
	// consecutive scans is scaled back in. The default 0 means only fully
	// idle TEs shrink.
	QueueLowWater int
	// ShrinkAfter is the number of consecutive low-water scans required
	// before a scale-in fires (default 4) — the shrink-side observation
	// window, so one idle tick between bursts cannot trigger a retirement.
	ShrinkAfter int
	// MinInstances floors scale-in per TE (default 1). Scale-in never runs
	// for TEs already at the floor.
	MinInstances int
	// Cooldown between scaling actions.
	Cooldown time.Duration
	// MaxInstances bounds growth per TE.
	MaxInstances int
	// TEs restricts the controller to the named task elements; empty means
	// all TEs are monitored.
	TEs []string
	// OnScale, if set, is invoked after each scaling action (up or down)
	// with the TE name and its new instance count (used by the Fig. 10
	// experiment to record the timeline).
	OnScale func(te string, instances int)
}

func (p ScalePolicy) watches(te string) bool {
	if len(p.TEs) == 0 {
		return true
	}
	for _, name := range p.TEs {
		if name == te {
			return true
		}
	}
	return false
}

// StartAutoScale launches the reactive controller: every interval it scans
// TEs for bottlenecks (persistently full queues) and stragglers (an
// instance whose processing rate falls far below its siblings' while items
// keep queueing) and adds instances, mirroring §3.3's dynamic dataflow
// approach. It also runs the shrink side of the loop: a watched TE whose
// backlog stays at or below QueueLowWater for ShrinkAfter consecutive scans
// is scaled back in via ScaleDown, never below MinInstances, so a load
// spike no longer pins the post-spike instance count (and its checkpoint
// and maintenance overhead) forever.
func (r *Runtime) StartAutoScale(interval time.Duration, p ScalePolicy) {
	if p.QueueHighWater <= 0 {
		// Clamp to at least one item: with QueueLen <= 1 the derived default
		// would be 0, and "parked depth >= 0" is true for an idle TE, which
		// made the pre-clamp controller add an instance on every
		// post-cooldown tick with zero load.
		p.QueueHighWater = r.opts.QueueLen / 2
		if p.QueueHighWater < 1 {
			p.QueueHighWater = 1
		}
	}
	if p.QueueLowWater < 0 {
		p.QueueLowWater = 0
	}
	if p.ShrinkAfter <= 0 {
		p.ShrinkAfter = 4
	}
	if p.MinInstances <= 0 {
		p.MinInstances = 1
	}
	if p.MaxInstances <= 0 {
		p.MaxInstances = 16
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 4 * interval
	}
	// Auto-initiated reshapes get a scan-window-sized quiesce budget: a
	// graph that cannot drain (cyclic, or loaded elsewhere) fails fast
	// instead of fencing all ingress for the full manual timeout.
	drain := time.Duration(p.ShrinkAfter) * interval
	if min := 4 * interval; drain < min {
		drain = min
	}
	if drain > scaleDrainTimeout {
		drain = scaleDrainTimeout
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		lastScale := time.Time{}
		prev := map[uint64]int64{}    // instance origin -> processed count
		lowStreak := map[string]int{} // TE name -> consecutive low-water scans
		for {
			select {
			case <-r.stopped:
				return
			case <-ticker.C:
				// One consolidated observation per tick: scanTEs consumes the
				// interval's parked-depth peaks, so both decisions below (and
				// the streak bookkeeping, which counts scans and therefore
				// advances during cooldown too) judge the same snapshot.
				scans := r.scanTEs(prev)
				r.updateIdleStreaks(p, scans, lowStreak)
				if time.Since(lastScale) < p.Cooldown {
					continue
				}
				// Growth takes priority; only a scan with no bottleneck may
				// shrink.
				scale, step := r.scaleUp, 1
				te, n := findBottleneck(p, scans)
				if te == "" {
					scale, step = r.scaleDown, -1
					if te, n = shrinkCandidate(p, scans, lowStreak); te == "" {
						continue
					}
				}
				err := scale(te, drain)
				// Space retries with the shared cooldown even when the
				// attempt failed — repeated fence-and-fail cycles must not
				// degrade ingress — and restart the observation window
				// either way.
				lastScale = time.Now()
				lowStreak[te] = 0
				if err == nil && p.OnScale != nil {
					p.OnScale(te, n+step)
				}
			}
		}
	}()
}

// teScan is one TE's load observation for a controller tick.
type teScan struct {
	name     string
	n        int     // instances, including killed ones (MaxInstances bound)
	live     int     // live instances
	parkPeak int     // peak parked overflow depth since the previous scan
	backlog  int     // instantaneous queued items (channel + in-flight)
	queued   bool    // some instance's backlog exceeds a quarter queue
	deltas   []int64 // per-live-instance processed since the previous scan
}

// scanTEs observes every TE once: parked-depth peaks (consumed, so each
// interval is judged by the worst it saw — a point sample reliably misses
// bursts that park and drain between ticks), instantaneous backlogs, and
// per-origin processing rates. Dead origins are pruned from the rate map on
// every scan; killed or replaced instances would otherwise leak one entry
// per recover/rescale cycle forever.
func (r *Runtime) scanTEs(prev map[uint64]int64) []teScan {
	scans := make([]teScan, 0, len(r.tes))
	seen := make(map[uint64]bool, len(prev))
	for _, ts := range r.tes {
		ts.mu.RLock()
		sc := teScan{name: ts.def.Name, n: len(ts.insts)}
		for _, ti := range ts.insts {
			if ti.killed.Load() {
				continue
			}
			sc.live++
			seen[ti.originID()] = true
			// Backpressure acts on the overflow, not on blocked senders: a
			// batch only parks once the destination channel is out of
			// slots, so parked depth is the direct, sustained measure of a
			// TE that cannot keep up — the primary bottleneck input. The
			// full item backlog (channel + parked + in-flight) still feeds
			// the straggler heuristic so a lagging instance is caught
			// before its queue overflows; both scores are in items, so
			// they rank coherently against each other.
			sc.parkPeak += int(ti.overflow.TakePeak())
			backlog := int(ti.queued.Load())
			sc.backlog += backlog
			if backlog > r.opts.QueueLen/4 {
				sc.queued = true
			}
			cur := ti.processed.Load()
			sc.deltas = append(sc.deltas, cur-prev[ti.originID()])
			prev[ti.originID()] = cur
		}
		ts.mu.RUnlock()
		scans = append(scans, sc)
	}
	for o := range prev {
		if !seen[o] {
			delete(prev, o)
		}
	}
	return scans
}

// updateIdleStreaks advances the per-TE count of consecutive scans at or
// below the low-water mark, resetting it the moment load reappears. Both
// the instantaneous backlog and the interval's parked peak must be low: a
// burst that parked and fully drained between two ticks is load, not idle
// time.
func (r *Runtime) updateIdleStreaks(p ScalePolicy, scans []teScan, streak map[string]int) {
	for _, sc := range scans {
		if !p.watches(sc.name) {
			continue
		}
		if sc.live > p.MinInstances && sc.backlog <= p.QueueLowWater && sc.parkPeak <= p.QueueLowWater {
			streak[sc.name]++
		} else {
			streak[sc.name] = 0
		}
	}
}

// shrinkCandidate returns the watched TE with the longest completed
// low-water streak (and its current live instance count), or "" when none
// has stayed idle long enough.
func shrinkCandidate(p ScalePolicy, scans []teScan, streak map[string]int) (string, int) {
	best := ""
	bestStreak := 0
	bestN := 0
	for _, sc := range scans {
		s := streak[sc.name]
		if s < p.ShrinkAfter || s <= bestStreak || sc.live <= p.MinInstances {
			continue
		}
		best, bestStreak, bestN = sc.name, s, sc.live
	}
	return best, bestN
}

// findBottleneck returns the name and current instance count of a TE that
// needs another instance: either items parked behind its persistently full
// queues during the scan interval, or one of its instances lags its
// siblings badly (a straggler) while work queues.
func findBottleneck(p ScalePolicy, scans []teScan) (string, int) {
	best := ""
	bestQueue := 0
	bestN := 0
	for _, sc := range scans {
		if !p.watches(sc.name) || sc.n >= p.MaxInstances {
			continue
		}
		// Bottleneck: items parked behind a full queue at any point in the
		// interval.
		if sc.parkPeak >= p.QueueHighWater && sc.parkPeak > bestQueue {
			best, bestQueue, bestN = sc.name, sc.parkPeak, sc.n
			continue
		}
		// Straggler: one instance far below the fastest sibling while its
		// queue builds (Fig. 10's second event). Needs at least 2 instances
		// to compare.
		if sc.queued && len(sc.deltas) >= 2 {
			var max, min int64 = sc.deltas[0], sc.deltas[0]
			for _, d := range sc.deltas[1:] {
				if d > max {
					max = d
				}
				if d < min {
					min = d
				}
			}
			if max > 0 && min*3 < max && sc.backlog > bestQueue {
				best, bestQueue, bestN = sc.name, sc.backlog, sc.n
			}
		}
	}
	return best, bestN
}
