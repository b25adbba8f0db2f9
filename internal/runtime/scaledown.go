package runtime

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// Reshaping grows or shrinks a partitioned SE by one instance (and with it
// every TE accessing the SE) without losing or duplicating a single item.
// ScaleUp and ScaleDown run the same quiesce-based protocol:
//
//  1. Fence ingress: every entry TE's injection mutex is held, so no new
//     external item can enter the graph, and admission credits rescale to
//     the new capacity the moment the swap commits (the watermark is
//     OverflowLen x live instances).
//  2. Quiesce: wait until every instance's backlog — queued batches, parked
//     overflow and the in-flight batch — drains, so no item routed under
//     the old layout can run against a rebuilt store. A retiring instance
//     processes anything parked at it through the normal worker path, so
//     its items are replayed into state, never dropped. The wait is
//     bounded; under sustained intra-graph load the caller gets
//     ErrNotQuiesced instead of an indefinite stall.
//  3. Swap: under the SE's checkpoint gate and lock, rebuild k±1 stores from
//     every old store's chunks (reshard, the split recovery uses), add or
//     retire one instance of every accessing TE, fold the dedup watermarks
//     into the whole new layout and bump the instance-snapshot epoch
//     (cached edge snapshots rebuild, so all routing — entry and
//     intra-graph — targets the new layout). A retiree's replay log is
//     adopted and its output seq counter remembered.
//  4. Resume: release the fence, then anchor every instance's backup chain
//     with a fresh base checkpoint (a chain cut against a pre-reshape store
//     must not continue across a reshape).
//
// Folding the per-origin maximum watermark into every instance is the key
// correctness move: at quiescence every emitted seq at or below that mark
// was processed by some pre-reshape instance, and the rebuild moved all of
// those instances' state into the new layout — so any later replay of such
// an item (after a failure elsewhere) must be discarded no matter which
// instance, a grown one included, the new routing sends it to.

// scaleDrainTimeout bounds the quiesce wait of ScaleUp and ScaleDown.
const scaleDrainTimeout = 30 * time.Second

// ErrNotQuiesced is returned by ScaleUp and ScaleDown when the graph's
// queues do not drain within the reshape timeout; the caller may retry once
// load drops.
var ErrNotQuiesced = errors.New("runtime: graph did not quiesce for reshape")

// ScaleDown retires one instance of the named TE, the inverse of ScaleUp:
//
//   - stateless TE: the last instance drains and retires;
//   - partitioned SE: the SE shrinks from k to k-1 partitions — every old
//     partition's chunks split k-1 ways and the pieces restore into fresh
//     stores, so each key lands at PartitionKey(key, k-1) no matter where
//     it lived.
//
// Partial SEs are refused: their replicas accumulate independently and are
// reconciled only by application merge computation, so a runtime fold of
// one replica into another (last-writer-wins per key) would silently lose
// accumulations. Retiring a partial replica needs an application-supplied
// combine function — future work.
//
// It also fails if the TE is already at one instance, if any accessing
// instance is killed or on a failed node (recover first: their parked items
// can only drain through replay), if the graph does not quiesce within 30s,
// or if a partition is held dirty (state.ErrDirtyActive).
func (r *Runtime) ScaleDown(teName string) error {
	return r.scaleDown(teName, scaleDrainTimeout)
}

// scaleDown is ScaleDown with an explicit quiesce budget; the auto-scaler
// passes a scan-window-sized budget so a failed attempt cannot stall
// ingress for the full manual timeout.
func (r *Runtime) scaleDown(teName string, drain time.Duration) error {
	if r.opts.Shard != nil {
		return fmt.Errorf("runtime: in-process scaling is unavailable in a sharded worker")
	}
	ts, err := r.te(teName)
	if err != nil {
		return err
	}
	r.scaleMu.Lock()
	defer r.scaleMu.Unlock()
	if ts.def.Access == nil {
		return r.retireStateless(ts, drain)
	}
	ss := r.ses[ts.def.Access.SE]
	switch ss.def.Kind {
	case core.KindPartial:
		return fmt.Errorf("runtime: SE %q is partial; replicas reconcile only through merge computation and cannot be folded by the runtime", ss.def.Name)
	case core.KindPartitioned:
		return r.reshapePartitioned(ss, -1, drain)
	default:
		return fmt.Errorf("runtime: unknown state kind %v", ss.def.Kind)
	}
}

// checkLive refuses a reshape while any instance of the given TEs is dead:
// a dead instance's parked items drain only through recovery, and the
// folded watermarks would wrongly cover them.
func (r *Runtime) checkLive(teIDs []int) error {
	for _, teID := range teIDs {
		ts := r.tes[teID]
		for _, ti := range ts.instances() {
			if ti.killed.Load() || ti.node.Failed() {
				return fmt.Errorf("runtime: TE %q has a dead instance; recover before reshaping", ts.def.Name)
			}
		}
	}
	return nil
}

// fenceIngress locks every entry TE's injection mutex and waits for the
// whole graph to quiesce. On success the returned release function reopens
// ingress; on failure ingress is already reopened. No other runtime locks
// are held while waiting, so workers drain freely (state access takes the
// SE read lock, which must stay available).
func (r *Runtime) fenceIngress(timeout time.Duration) (release func(), err error) {
	var locked []*teState
	for _, ts := range r.tes {
		if ts.def.Entry {
			ts.injMu.Lock()
			locked = append(locked, ts)
		}
	}
	release = func() {
		for _, ts := range locked {
			ts.injMu.Unlock()
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		if r.quiet() {
			// Same settle double-check as Drain: emissions may be in flight
			// between a worker's flush and the downstream queued counter.
			time.Sleep(2 * time.Millisecond)
			if r.quiet() {
				return release, nil
			}
		}
		select {
		case <-r.stopped:
			release()
			return nil, ErrStopped
		default:
		}
		if time.Now().After(deadline) {
			release()
			return nil, fmt.Errorf("%w (timeout %v)", ErrNotQuiesced, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// foldWatermarks raises every instance's dedup watermarks to the
// per-origin maximum across all of them; only sound at quiescence.
func foldWatermarks(insts []*teInstance) {
	fold := make(map[uint64]uint64)
	for _, ti := range insts {
		for o, s := range ti.dedup.Watermarks() {
			if s > fold[o] {
				fold[o] = s
			}
		}
	}
	for _, ti := range insts {
		ti.dedup.Fold(fold)
	}
}

// retireTEInstance removes the last instance of a TE at quiescence: folds
// the per-origin maximum dedup watermark across all instances into each
// survivor, adopts the retiree's replay logs (items keep their origin, so
// downstream trim and dedup are unaffected), records its output seq counter
// for a future re-expansion, stops its worker and bumps the snapshot epoch.
func (r *Runtime) retireTEInstance(ts *teState) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	k := len(ts.insts)
	victim := ts.insts[k-1]
	foldWatermarks(ts.insts)

	// The retiree's un-trimmed output log moves to survivor 0, so a later
	// downstream recovery can still replay items only this log covers.
	for e := range victim.outBufs {
		if items := victim.outBufs[e].Replay(); len(items) > 0 {
			ts.insts[0].outBufs[e].AppendBatch(items)
		}
	}

	if ts.retiredSeqs == nil {
		ts.retiredSeqs = make(map[int]uint64)
	}
	if seq := victim.seqCtr.Load(); seq > ts.retiredSeqs[k-1] {
		ts.retiredSeqs[k-1] = seq
	}
	ts.retiredProcessed.Add(victim.processed.Load())

	victim.kill()
	// Quiescence means nothing is parked; subtract defensively so a stray
	// race can only leave the global bound high, never low.
	if parked := victim.overflow.Items(); parked > 0 {
		r.parked.Add(-parked)
	}
	ts.insts = ts.insts[:k-1]
	ts.bumpInstances()
	// Checkpoint watermark bookkeeping restarts for the shrunk layout.
	ts.ckptWM = nil
}

// retireStateless retires the last instance of a stateless TE.
func (r *Runtime) retireStateless(ts *teState, drain time.Duration) error {
	if len(ts.instances()) <= 1 {
		return fmt.Errorf("runtime: TE %q already at one instance", ts.def.Name)
	}
	if err := r.checkLive([]int{ts.def.ID}); err != nil {
		return err
	}
	release, err := r.fenceIngress(drain)
	if err != nil {
		return err
	}
	// Re-validate behind the fence: an instance killed during the quiesce
	// wait would make the watermark fold unsound.
	if err := r.checkLive([]int{ts.def.ID}); err != nil {
		release()
		return err
	}
	r.retireTEInstance(ts)
	release()
	return nil
}

// reshapePartitioned grows (delta +1) or shrinks (delta -1) a partitioned
// SE from k to k+delta instances at quiescence: every old partition is
// resharded k+delta ways, because the partition function changes for
// every key, not just those of the added or retired partition. Surviving
// indices are rebuilt on their existing nodes, a grown index gets a fresh
// node, and every rebuilt instance anchors a fresh base checkpoint.
func (r *Runtime) reshapePartitioned(ss *seState, delta int, drain time.Duration) error {
	accessing := r.graph.TEsAccessing(ss.def.ID)
	if delta < 0 && r.StateInstances(ss.def.Name) <= 1 {
		return fmt.Errorf("runtime: SE %q already at one instance", ss.def.Name)
	}
	if err := r.checkLive(accessing); err != nil {
		return err
	}
	release, err := r.fenceIngress(drain)
	if err != nil {
		return err
	}
	// Re-validate behind the fence: an instance killed during the quiesce
	// wait would make the watermark fold unsound (its parked items drained
	// only through recovery, yet the fold would cover them).
	if err := r.checkLive(accessing); err != nil {
		release()
		return err
	}

	// Exclude checkpoints for the whole swap: in-flight ones finish (their
	// saves commit before MergeDirty clears the dirty flag), new ones wait
	// until the rebuilt instances are in place. Lock order: ckptGate, then
	// ss.mu — the order CheckpointNow observes.
	ss.ckptGate.Lock()
	ss.mu.Lock()
	old := ss.insts
	k := len(old)
	stores, err := r.reshard(ss, old, k+delta)
	if err != nil {
		ss.mu.Unlock()
		ss.ckptGate.Unlock()
		release()
		return err
	}
	newInsts := make([]*seInstance, len(stores))
	for j, store := range stores {
		ni := &seInstance{se: ss, idx: j, store: store}
		if j < k {
			// Surviving partitions stay home and inherit their predecessor's
			// epoch counter, so epochs stay monotonic per instance name in
			// the backup manifest (a reset counter could reuse an epoch
			// number the superseded chain still references). chained stays
			// false: the rebuilt store must anchor a fresh base first.
			ni.node = old[j].node
			ni.epoch.Store(old[j].epoch.Load())
		} else {
			ni.node = r.cl.AddNode()
		}
		newInsts[j] = ni
	}
	var started []*teInstance
	for _, teID := range accessing {
		ts := r.tes[teID]
		if delta < 0 {
			r.retireTEInstance(ts)
			continue
		}
		ti := r.appendInstance(ts, newInsts[k].node)
		foldWatermarks(ts.instances())
		started = append(started, ti)
	}
	ss.insts = newInsts // detaches every old instance's checkpoint loop
	ss.mu.Unlock()
	ckpt := r.opts.Mode != checkpoint.ModeOff && r.bk != nil
	if ckpt {
		for _, si := range newInsts {
			r.startCheckpointLoop(si)
		}
	}
	ss.ckptGate.Unlock()
	for _, ti := range started {
		r.startWorker(ti)
	}
	release()
	if !ckpt {
		return nil
	}

	// Anchor the rebuilt chains outside the fence; chained=false keeps
	// every next epoch a base even if one of these fails and the periodic
	// loop retries it. A retiree's chain is only dropped once every
	// survivor's post-shrink base has committed — until then the
	// pre-shrink chains (retiree's included) remain the restorable
	// generation, and on failure its manifest is left behind (a bounded
	// leak) rather than making its moved keys unrecoverable.
	committed := true
	for _, si := range newInsts {
		if _, err := r.CheckpointNow(ss.def.Name, si.idx); err != nil {
			committed = false
		}
	}
	if delta < 0 && committed {
		r.bk.Forget(old[k-1].instName())
	}
	return nil
}
