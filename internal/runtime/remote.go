package runtime

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/state"
)

// This file is the worker-process surface of the distributed deployment
// mode: injection with coordinator-assigned timestamps and the
// state/watermark dumps the equivalence checks read (snapshot and restore
// live in snapstream.go). The coordinator owns the external seq space and the replay logs;
// a worker runtime only executes its slice of the graph (checkpoint mode
// off) and must treat inbound (Origin, Seq) timestamps as opaque truth.

// InjectLogged delivers externally created items that already carry their
// (Origin, Seq) timestamps — the remote-worker counterpart of InjectBatch.
// Items must arrive in seq order per origin: the per-origin dedup watermark
// permanently drops an item overtaken by a later seq, which is exactly why
// the coordinator serialises assignment, logging and transmission.
func (r *Runtime) InjectLogged(teName string, items []core.Item) error {
	ts, err := r.te(teName)
	if err != nil {
		return err
	}
	if !ts.def.Entry {
		return fmt.Errorf("%w: %q", ErrNotEntry, teName)
	}
	if len(items) == 0 {
		return nil
	}
	if err := r.admit(ts, len(items)); err != nil {
		return err
	}
	ts.injMu.Lock()
	defer ts.injMu.Unlock()
	insts := ts.instances()
	if len(insts) == 0 {
		return nil
	}
	if ts.srcBuf != nil {
		ts.srcBuf.AppendBatch(items)
	}
	if len(insts) == 1 {
		b := make([]core.Item, len(items))
		copy(b, items)
		r.enqueue(insts[0], b)
		return nil
	}
	// Group per destination in two passes, mirroring InjectBatch.
	counts := make([]int, len(insts))
	targets := make([]int, len(items))
	for i := range items {
		t := entryIndex(ts, insts, items[i])
		targets[i] = t
		counts[t]++
	}
	subs := make([][]core.Item, len(insts))
	for t, n := range counts {
		if n > 0 {
			subs[t] = make([]core.Item, 0, n)
		}
	}
	for i, t := range targets {
		subs[t] = append(subs[t], items[i])
	}
	for t, sub := range subs {
		if len(sub) > 0 {
			r.enqueue(insts[t], sub)
		}
	}
	return nil
}

// CallItem injects a pre-timestamped request item and waits for the
// dataflow's Reply — the remote-worker counterpart of Call. The request
// correlation id is assigned here, worker-locally: replies resolve within
// this runtime, and a coordinator-chosen id could collide across worker
// incarnations and resolve a stranger's request after a replay.
func (r *Runtime) CallItem(teName string, it core.Item, timeout time.Duration) (any, error) {
	ts, err := r.te(teName)
	if err != nil {
		return nil, err
	}
	if !ts.def.Entry {
		return nil, fmt.Errorf("%w: %q", ErrNotEntry, teName)
	}
	reqID := r.reqSeq.Add(1)
	ch := make(chan any, 1)
	r.replyMu.Lock()
	r.replies[reqID] = ch
	r.replyMu.Unlock()
	defer func() {
		r.replyMu.Lock()
		delete(r.replies, reqID)
		r.replyMu.Unlock()
	}()

	if err := r.admit(ts, 1); err != nil {
		return nil, err
	}
	start := time.Now()
	ts.injMu.Lock()
	insts := ts.instances()
	if len(insts) == 0 {
		ts.injMu.Unlock()
		return nil, fmt.Errorf("runtime: entry %q has no instances", teName)
	}
	it.ReqID = reqID
	if ts.srcBuf != nil {
		ts.srcBuf.Append(it)
	}
	r.enqueue(insts[entryIndex(ts, insts, it)], []core.Item{it})
	ts.injMu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case v := <-ch:
		r.CallLatency.Record(time.Since(start))
		return v, nil
	case <-timer.C:
		return nil, ErrTimeout
	case <-r.stopped:
		return nil, ErrStopped
	}
}

// pauseAll write-locks the pause mutex of every node hosting a TE instance,
// in node-id order, and returns the matching unlock. In-flight batches
// finish first (workers hold the read side while processing), so with all
// locks held state and watermarks are mutually consistent.
func (r *Runtime) pauseAll() func() {
	byID := map[int]bool{}
	var ids []int
	for _, ts := range r.tes {
		for _, ti := range ts.instances() {
			if !byID[ti.node.ID] {
				byID[ti.node.ID] = true
				ids = append(ids, ti.node.ID)
			}
		}
	}
	sort.Ints(ids)
	mus := make([]*sync.RWMutex, len(ids))
	for i, id := range ids {
		mu := r.pauseForID(id)
		mu.Lock()
		mus[i] = mu
	}
	return func() {
		for i := len(mus) - 1; i >= 0; i-- {
			mus[i].Unlock()
		}
	}
}

// pauseForID is pauseFor keyed by node id.
func (r *Runtime) pauseForID(nodeID int) *sync.RWMutex {
	r.pmu.Lock()
	mu, ok := r.pauseMu[nodeID]
	if !ok {
		mu = &sync.RWMutex{}
		r.pauseMu[nodeID] = mu
	}
	r.pmu.Unlock()
	return mu
}

// DumpKV returns the full contents of a dictionary SE across its
// partitions. Values are copied, so the caller owns the map.
func (r *Runtime) DumpKV(seName string) (map[uint64][]byte, error) {
	ss, err := r.se(seName)
	if err != nil {
		return nil, err
	}
	ss.mu.RLock()
	insts := append([]*seInstance(nil), ss.insts...)
	ss.mu.RUnlock()
	out := make(map[uint64][]byte)
	for _, si := range insts {
		kvs, ok := si.store.(state.KV)
		if !ok {
			return nil, fmt.Errorf("runtime: SE %q is not a dictionary (type %v)", seName, si.store.Type())
		}
		kvs.ForEach(func(key uint64, value []byte) bool {
			out[key] = append([]byte(nil), value...)
			return true
		})
	}
	return out, nil
}

// FoldedWatermarks folds (max per origin) the dedup watermarks across the
// named TE's instances: the per-origin high-water mark of everything any
// instance has processed. Two runs over the same injected stream are
// equivalent exactly when their folded watermarks and state agree.
func (r *Runtime) FoldedWatermarks(teName string) (map[uint64]uint64, error) {
	ts, err := r.te(teName)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]uint64)
	for _, ti := range ts.instances() {
		for o, s := range ti.dedup.Watermarks() {
			if cur, ok := out[o]; !ok || s > cur {
				out[o] = s
			}
		}
	}
	return out, nil
}

// QueuedTotal sums the inbound backlog across every TE instance — the load
// hint heartbeat acks carry.
func (r *Runtime) QueuedTotal() int64 {
	var total int64
	for _, ts := range r.tes {
		for _, ti := range ts.instances() {
			total += ti.queued.Load()
		}
	}
	return total
}
