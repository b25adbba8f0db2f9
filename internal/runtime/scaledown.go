package runtime

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/state"
)

// Scale-in retires one instance of a TE (and, like ScaleUp, of the SE it
// accesses and of every TE sharing that SE) without losing or duplicating a
// single item. The protocol is quiesce-based:
//
//  1. Fence ingress: every entry TE's injection mutex is held, so no new
//     external item can enter the graph, and admission credits rescale to
//     the shrunk capacity the moment the swap commits (the watermark is
//     OverflowLen x live instances).
//  2. Quiesce: wait until every instance's backlog — queued batches, parked
//     overflow and the in-flight batch — drains. The retiring instance
//     processes anything parked at it through the normal worker path, so
//     items parked at a retiring partition are replayed into state, never
//     dropped. The wait is bounded; under sustained intra-graph load the
//     caller gets an error instead of an indefinite stall.
//  3. Swap: bump the instance-snapshot epoch (cached edge snapshots
//     rebuild, so all routing — entry and intra-graph — targets the shrunk
//     layout), fold every instance's dedup watermarks into the survivors,
//     adopt the retiree's replay log, remember its output seq counter, and
//     merge its state into the survivors via the state layer's Merge.
//  4. Resume: release the fence, then anchor the survivors' backup chains
//     with fresh base checkpoints (a chain cut against the pre-merge store
//     must not continue across a merge).
//
// Folding the per-origin maximum watermark into each survivor is the key
// correctness move: at quiescence every emitted seq at or below that mark
// was processed by some pre-shrink instance, and the merge moved all of
// those instances' state into the survivors — so any later replay of such
// an item (after a failure elsewhere) must be discarded no matter which
// survivor the new routing sends it to.

// scaleDrainDefault bounds the quiesce wait of ScaleDown when Options does
// not override it.
const scaleDrainDefault = 30 * time.Second

// ErrNotQuiesced is returned by ScaleDown when the graph's queues do not
// drain within the scale-in timeout; the caller may retry once load drops.
var ErrNotQuiesced = errors.New("runtime: graph did not quiesce for scale-in")

func (r *Runtime) scaleDrainTimeout() time.Duration {
	if r.opts.ScaleDrainTimeout > 0 {
		return r.opts.ScaleDrainTimeout
	}
	return scaleDrainDefault
}

// ScaleDown retires one instance of the named TE, the inverse of ScaleUp:
//
//   - stateless TE: the last instance drains and retires;
//   - partitioned SE: the SE shrinks from k to k-1 partitions — every old
//     partition splits k-1 ways and the pieces merge into fresh stores, so
//     each key lands at PartitionKey(key, k-1) no matter where it lived.
//
// Partial SEs are refused: their replicas accumulate independently and are
// reconciled only by application merge computation, so a runtime fold of
// one replica into another (last-writer-wins per key) would silently lose
// accumulations. Retiring a partial replica needs an application-supplied
// combine function — future work.
//
// It also fails if the TE is already at one instance, if any accessing
// instance is killed or on a failed node (recover first: their parked items
// can only drain through replay), or if the graph does not quiesce within
// Options.ScaleDrainTimeout.
func (r *Runtime) ScaleDown(teName string) error {
	return r.scaleDown(teName, r.scaleDrainTimeout())
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
		return r.shrinkPartitioned(ss, drain)
	default:
		return fmt.Errorf("runtime: unknown state kind %v", ss.def.Kind)
	}
}

// checkRetireable refuses scale-in while any instance of the given TEs is
// dead: a dead instance's parked items drain only through recovery, and the
// folded watermarks would wrongly cover them.
func (r *Runtime) checkRetireable(teIDs []int) error {
	for _, teID := range teIDs {
		ts := r.tes[teID]
		for _, ti := range ts.instances() {
			if ti.killed.Load() || ti.node.Failed() {
				return fmt.Errorf("runtime: TE %q has a dead instance; recover before scaling in", ts.def.Name)
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

	fold := make(map[uint64]uint64)
	for _, ti := range ts.insts {
		for o, s := range ti.dedup.Watermarks() {
			if s > fold[o] {
				fold[o] = s
			}
		}
	}
	for _, ti := range ts.insts[:k-1] {
		ti.dedup.Fold(fold)
	}

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

	victim.killed.Store(true)
	close(victim.dead)
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
	if err := r.checkRetireable([]int{ts.def.ID}); err != nil {
		return err
	}
	release, err := r.fenceIngress(drain)
	if err != nil {
		return err
	}
	// Re-validate behind the fence: an instance killed during the quiesce
	// wait would make the watermark fold unsound.
	if err := r.checkRetireable([]int{ts.def.ID}); err != nil {
		release()
		return err
	}
	r.retireTEInstance(ts)
	release()
	return nil
}

// shrinkPartitioned shrinks a partitioned SE from k to k-1 instances: at
// quiescence every old partition (victim and survivors alike) splits k-1
// ways and the pieces merge into fresh stores, because the partition
// function changes for every key, not just the retiree's. Survivor stores
// are rebuilt on their existing nodes; all rebuilt instances anchor fresh
// base checkpoints.
func (r *Runtime) shrinkPartitioned(ss *seState, drain time.Duration) error {
	accessing := r.graph.TEsAccessing(ss.def.ID)
	ss.mu.RLock()
	k := len(ss.insts)
	ss.mu.RUnlock()
	if k <= 1 {
		return fmt.Errorf("runtime: SE %q already at one instance", ss.def.Name)
	}
	if err := r.checkRetireable(accessing); err != nil {
		return err
	}

	release, err := r.fenceIngress(drain)
	if err != nil {
		return err
	}
	// Re-validate behind the fence: an instance killed during the quiesce
	// wait would make the watermark fold unsound (its parked items drained
	// only through recovery, yet the fold would cover them).
	if err := r.checkRetireable(accessing); err != nil {
		release()
		return err
	}
	// Exclude checkpoints for the whole destructive swap: in-flight ones
	// finish (their saves commit before MergeDirty clears the dirty flag),
	// new ones wait until the rebuilt instances are in place.
	ss.ckptGate.Lock()
	victimName, err := r.shrinkPartitionedFenced(ss, accessing)
	ss.ckptGate.Unlock()
	release()
	if err != nil {
		return err
	}

	// Anchor the rebuilt chains outside the fence; chained=false keeps
	// every next epoch a base even if one of these fails and the periodic
	// loop retries it. The retiree's chain is only dropped once every
	// survivor's post-merge base has committed — until then the pre-shrink
	// chains (retiree's included) remain the restorable generation.
	if r.opts.Mode != checkpoint.ModeOff && r.bk != nil {
		ss.mu.RLock()
		insts := append([]*seInstance(nil), ss.insts...)
		ss.mu.RUnlock()
		committed := true
		for _, si := range insts {
			if _, err := r.CheckpointNow(ss.def.Name, si.idx); err != nil {
				committed = false
			}
		}
		if committed {
			r.bk.Forget(victimName)
		}
		// On failure the retiree's manifest is left behind (a bounded leak):
		// deleting it before the new bases exist would make its merged keys
		// unrecoverable if a survivor fails first.
	}
	return nil
}

// shrinkPartitionedFenced performs the store rebuild and instance swap,
// returning the retired instance's backup name; the caller holds the
// ingress fence over a quiesced graph and the SE's checkpoint gate.
func (r *Runtime) shrinkPartitionedFenced(ss *seState, accessing []int) (string, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	k := len(ss.insts)
	if k <= 1 {
		return "", fmt.Errorf("runtime: SE %q already at one instance", ss.def.Name)
	}
	old := ss.insts
	victim := old[k-1]

	// Validate the whole rebuild before the first destructive step: the
	// split/merge loop below empties old stores as it goes and must not be
	// able to abort halfway with part of the SE drained into stores that
	// would then be discarded.
	newStores := make([]state.Store, k-1)
	for j := range newStores {
		st, err := r.newStore(ss.def)
		if err != nil {
			return "", err
		}
		if _, ok := st.(state.Merger); !ok {
			return "", fmt.Errorf("runtime: SE %q store (%v) does not support merging", ss.def.Name, st.Type())
		}
		newStores[j] = st
	}
	for _, si := range old {
		if _, ok := si.store.(state.Partitionable); !ok {
			return "", fmt.Errorf("runtime: SE %q store (%v) is not partitionable", ss.def.Name, si.store.Type())
		}
		if _, ok := si.store.(state.DirtyReporter); !ok {
			return "", fmt.Errorf("runtime: SE %q store (%v) does not report dirty mode", ss.def.Name, si.store.Type())
		}
	}

	// No store can be dirty here: the caller write-holds the checkpoint
	// gate, which waited out every in-flight checkpoint (whose Save commits
	// before MergeDirty clears the dirty flag) and blocks new ones, and
	// writers never flip the flag. The probe below is a cheap invariant
	// check against out-of-band BeginDirty use, bounded so a violation
	// surfaces as an error before anything is destroyed, not as a
	// mid-rebuild abort.
	deadline := time.Now().Add(r.scaleDrainTimeout())
	for _, si := range old {
		for si.store.(state.DirtyReporter).Dirty() {
			if time.Now().After(deadline) {
				return "", fmt.Errorf("runtime: SE %q instance %d held dirty past the drain timeout", ss.def.Name, si.idx)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}

	for _, si := range old {
		pieces, err := si.store.(state.Partitionable).Split(k - 1)
		if err != nil {
			return "", err
		}
		for j, p := range pieces {
			if err := newStores[j].(state.Merger).Merge(p); err != nil {
				return "", err
			}
		}
	}

	newInsts := make([]*seInstance, k-1)
	for j := 0; j < k-1; j++ {
		ni := &seInstance{se: ss, idx: j, node: old[j].node, store: newStores[j]}
		// Epochs stay monotonic per instance name; chained stays false so
		// the rebuilt store anchors a fresh base (see repartition).
		ni.epoch.Store(old[j].epoch.Load())
		newInsts[j] = ni
	}
	for _, teID := range accessing {
		r.retireTEInstance(r.tes[teID])
	}
	ss.insts = newInsts // detaches every old instance's checkpoint loop

	if r.opts.Mode != checkpoint.ModeOff && r.bk != nil {
		for _, si := range newInsts {
			r.startCheckpointLoop(si)
		}
	}
	// The retiree's chain is NOT forgotten here: until every survivor's
	// post-merge base commits, the pre-shrink chains are the only
	// restorable generation. The caller drops it after the eager bases.
	return victim.instName(), nil
}
