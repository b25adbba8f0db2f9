package runtime

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/state"
)

// Errors returned by the external interface.
var (
	ErrNotEntry = errors.New("runtime: TE is not an entry point")
	ErrTimeout  = errors.New("runtime: call timed out")
	ErrStopped  = errors.New("runtime: runtime stopped")
	// ErrOverloaded is returned by Inject/Call/InjectBatch when admission
	// control rejects the item: the Shed policy fails fast, and the Block
	// policy gives up once its deadline passes or the target entry
	// instance is down. Shed items are never logged to the source replay
	// buffer — a rejected item is the caller's to retry.
	ErrOverloaded = errors.New("runtime: overloaded")
)

// InjectPolicy selects how ingress admission reacts when an entry TE is
// over its OverflowLen backlog or any instance in the graph is saturated.
type InjectPolicy int

const (
	// InjectBlock waits for admission credit, bounded by InjectDeadline
	// (0 = forever). The default; with no deadline it preserves the
	// historical semantics of blocking callers on a congested pipeline.
	InjectBlock InjectPolicy = iota
	// InjectShed fails fast with ErrOverloaded instead of waiting.
	InjectShed
)

// String names the policy (used by CLI flag plumbing).
func (p InjectPolicy) String() string {
	switch p {
	case InjectBlock:
		return "block"
	case InjectShed:
		return "shed"
	default:
		return fmt.Sprintf("InjectPolicy(%d)", int(p))
	}
}

// admitPollInterval paces the Block-policy credit wait. Admission is an
// external boundary; a 100µs poll costs the waiting caller nothing
// measurable and keeps the runtime free of per-instance condition
// variables on the dispatch path.
const admitPollInterval = 100 * time.Microsecond

// entryLoad sums the queued items (channel + parked overflow + in-flight
// batch) across all of a TE's instances, and counts the live ones. Dead
// instances contribute to the backlog: their parked items are real
// unprocessed work that only recovery can drain, and admitting against
// them would grow the parking lot without bound.
func entryLoad(ts *teState) (backlog int64, live int) {
	for _, ti := range ts.instances() {
		backlog += ti.queued.Load()
		if !ti.killed.Load() && !ti.node.Failed() {
			live++
		}
	}
	return backlog, live
}

// backpressured reports whether any TE in the graph has more parked
// overflow on its live instances than its capacity-scaled watermark,
// OverflowLen x live instances. While true, ingress credits are revoked:
// admission stalls (or sheds) so total parked memory stays bounded by what
// was already admitted times the graph's fan-out. Scaling the watermark
// with the live instance count means adding instances to a bottleneck TE
// restores credit immediately — new instances absorb fresh load while the
// backlogged one drains, instead of ingress waiting on the slow drain.
// Dead instances are excluded: their parked items (entry items keyed to a
// failed partition) drain only through recovery, and must not stall the
// rest of the graph meanwhile.
func (r *Runtime) backpressured() bool {
	// Items logged for a remote peer but not yet acked are parked work too:
	// a full (or dead) downstream worker must revoke ingress credit here
	// exactly as local overflow does, or the sender's queues grow without
	// bound while the receiver rejects.
	if r.net != nil && r.net.pending.Load() >= int64(r.opts.OverflowLen) {
		return true
	}
	// Nothing parked anywhere (the common case) means no TE can be over
	// its watermark — skip the per-instance scan on the admission fast
	// path, which runs once per Inject and per 100µs of every blocked
	// caller.
	if r.parked.Load() == 0 {
		return false
	}
	for _, ts := range r.tes {
		var parked int64
		live := 0
		for _, ti := range ts.instances() {
			if ti.killed.Load() || ti.node.Failed() {
				continue
			}
			live++
			parked += ti.overflow.Items()
		}
		if live > 0 && parked >= int64(r.opts.OverflowLen)*int64(live) {
			return true
		}
	}
	return false
}

// admissible reports whether n more items fit the entry TE's credit: no TE
// anywhere in the graph is backpressured, and the entry backlog stays
// within OverflowLen per live instance. An idle entry always admits, so a
// single batch larger than the bound is not rejected forever — the bound
// then applies between batches.
func (r *Runtime) admissible(ts *teState, n int) bool {
	if r.backpressured() {
		return false
	}
	q, live := entryLoad(ts)
	if live == 0 {
		live = 1
	}
	return q == 0 || q+int64(n) <= int64(r.opts.OverflowLen)*int64(live)
}

// admit applies the configured ingress policy for n items offered to an
// entry TE, recording the admission wait. It returns nil once the items may
// enter, ErrOverloaded when they shed, and ErrStopped if the runtime shuts
// down mid-wait.
func (r *Runtime) admit(ts *teState, n int) error {
	if r.admissible(ts, n) {
		r.AdmitLatency.Record(0)
		return nil
	}
	if r.opts.InjectPolicy == InjectShed {
		ts.shed.Add(int64(n))
		return fmt.Errorf("%w: entry %q shed %d item(s)", ErrOverloaded, ts.def.Name, n)
	}
	start := time.Now()
	var deadline time.Time
	if r.opts.InjectDeadline > 0 {
		deadline = start.Add(r.opts.InjectDeadline)
	}
	for {
		select {
		case <-r.stopped:
			return ErrStopped
		default:
		}
		if r.admissible(ts, n) {
			r.AdmitLatency.Record(time.Since(start).Nanoseconds())
			return nil
		}
		if entryDown(ts) {
			// Nothing live is draining this TE's backlog; blocking would
			// wait on a recovery that may never be triggered.
			ts.shed.Add(int64(n))
			r.AdmitLatency.Record(time.Since(start).Nanoseconds())
			return fmt.Errorf("%w: entry %q has no live instance", ErrOverloaded, ts.def.Name)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			ts.shed.Add(int64(n))
			r.AdmitLatency.Record(time.Since(start).Nanoseconds())
			return fmt.Errorf("%w: entry %q admission deadline exceeded", ErrOverloaded, ts.def.Name)
		}
		time.Sleep(admitPollInterval)
	}
}

// entryDown reports whether every instance of the TE is dead.
func entryDown(ts *teState) bool {
	for _, ti := range ts.instances() {
		if !ti.killed.Load() && !ti.node.Failed() {
			return false
		}
	}
	return true
}

// entryIndex picks the entry instance for an item. Partitioned access keys
// the item to its partition unconditionally — rerouting a keyed item across
// partitions would read and write the wrong state, so a dead partition's
// items park in its overflow (observable, and re-delivered by source replay
// once the partition recovers) instead of being dropped or rerouted.
// Anything else load-balances by seq and falls over to the next live
// instance, so a killed instance no longer swallows its share of the
// injected stream.
func entryIndex(ts *teState, insts []*teInstance, it core.Item) int {
	if ts.def.Access != nil && ts.def.Access.Mode == core.AccessByKey {
		if ts.shard.Total > 0 {
			// Sharded: the partition is a global identity. The coordinator
			// routes each key to the owning worker, so the local slot is
			// global minus the shard base; clamp defensively against a
			// misrouted item rather than indexing out of range.
			li := statePartition(it.Key, ts.shard.Total) - ts.shard.First
			if li < 0 || li >= len(insts) {
				li = 0
			}
			return li
		}
		return statePartition(it.Key, len(insts))
	}
	start := int(it.Seq % uint64(len(insts)))
	for i := 0; i < len(insts); i++ {
		idx := (start + i) % len(insts)
		if dst := insts[idx]; !dst.killed.Load() && !dst.node.Failed() {
			return idx
		}
	}
	// Everything is dead: park at the hashed slot; source replay re-routes
	// after recovery.
	return start
}

// injectTo admits, logs and routes one externally created item. The
// injection lock spans seq assignment through enqueue: two concurrent
// injectors must not be able to hand a later seq to an entry instance ahead
// of an earlier one, or the per-origin dedup watermark drops the overtaken
// item for good.
func (r *Runtime) injectTo(ts *teState, key, reqID uint64, value any) error {
	if err := r.admit(ts, 1); err != nil {
		return err
	}
	ts.injMu.Lock()
	defer ts.injMu.Unlock()
	insts := ts.instances()
	if len(insts) == 0 {
		return nil
	}
	it := core.Item{Origin: externalOrigin, Seq: r.extSeq.Add(1), Key: key, ReqID: reqID, Value: value}
	if ts.srcBuf != nil {
		ts.srcBuf.Append(it)
	}
	// The one-item wrap is the price of batch queues' ownership transfer
	// (the receiver keeps the slice); InjectBatch is the lever when entry
	// throughput dominates.
	r.enqueue(insts[entryIndex(ts, insts, it)], []core.Item{it})
	return nil
}

// routeToEntry dispatches an already-logged item to an entry instance; the
// replay path uses it to re-deliver source-buffer items with their original
// seqs.
func (r *Runtime) routeToEntry(ts *teState, it core.Item) {
	insts := ts.instances()
	if len(insts) == 0 {
		return
	}
	r.enqueue(insts[entryIndex(ts, insts, it)], []core.Item{it})
}

// statePartition mirrors dataflow routing so injection agrees with SE
// partition placement. It computes the partition directly — Router.Route
// would allocate a slice per injected item.
func statePartition(key uint64, n int) int {
	return state.PartitionKey(key, n)
}

// Inject delivers a fire-and-forget item to an entry TE, subject to the
// configured admission policy.
func (r *Runtime) Inject(teName string, key uint64, value any) error {
	ts, err := r.te(teName)
	if err != nil {
		return err
	}
	if !ts.def.Entry {
		return fmt.Errorf("%w: %q", ErrNotEntry, teName)
	}
	return r.injectTo(ts, key, 0, value)
}

// InjectItem is one externally offered item for InjectBatch.
type InjectItem struct {
	Key   uint64
	Value any
}

// InjectBatch delivers a batch of fire-and-forget items to an entry TE with
// one admission decision, one source-log append, one route and one enqueue
// per destination instance — the entry-throughput counterpart of the
// internal micro-batch hot path. Admission is all-or-nothing: either the
// whole batch enters (nil) or none of it does (ErrOverloaded/ErrStopped),
// so callers never have to reconstruct partial acceptance.
func (r *Runtime) InjectBatch(teName string, items []InjectItem) error {
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
	batch := make([]core.Item, len(items))
	for i := range items {
		batch[i] = core.Item{
			Origin: externalOrigin,
			Seq:    r.extSeq.Add(1),
			Key:    items[i].Key,
			Value:  items[i].Value,
		}
	}
	if ts.srcBuf != nil {
		ts.srcBuf.AppendBatch(batch)
	}
	if len(insts) == 1 {
		// Single destination: the freshly built batch transfers ownership
		// whole, with no grouping pass or copy.
		r.enqueue(insts[0], batch)
		return nil
	}
	// Group per destination in two passes (count, then fill pre-sized
	// receiver-owned sub-batches), mirroring enqueueGrouped.
	counts := make([]int, len(insts))
	targets := make([]int, len(batch))
	for i := range batch {
		t := entryIndex(ts, insts, batch[i])
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
		subs[t] = append(subs[t], batch[i])
	}
	for t, sub := range subs {
		if len(sub) > 0 {
			r.enqueue(insts[t], sub)
		}
	}
	return nil
}

// Call injects a request item and waits for a Reply from the dataflow,
// recording the round-trip latency. It is the client path for
// request/reply workflows such as getRec in the CF application.
func (r *Runtime) Call(teName string, key uint64, value any, timeout time.Duration) (any, error) {
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

	start := time.Now()
	if err := r.injectTo(ts, key, reqID, value); err != nil {
		return nil, err
	}

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

// callWaiting reports whether an external Call is still waiting on the
// request id. Every graph has at most one gather stage per request path
// (the merge that replies), so a nonzero-reqID partial with no waiting
// Call can only belong to a completed or abandoned request.
func (r *Runtime) callWaiting(reqID uint64) bool {
	r.replyMu.Lock()
	_, ok := r.replies[reqID]
	r.replyMu.Unlock()
	return ok
}

// resolve delivers a reply to a waiting Call; late or duplicate replies
// (e.g. regenerated during replay) are dropped.
func (r *Runtime) resolve(reqID uint64, value any) {
	if reqID == 0 {
		return
	}
	r.replyMu.Lock()
	ch, ok := r.replies[reqID]
	r.replyMu.Unlock()
	if !ok {
		return
	}
	select {
	case ch <- value:
	default:
	}
}
