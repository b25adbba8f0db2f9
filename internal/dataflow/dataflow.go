// Package dataflow provides the item-level plumbing of the SDG runtime:
//
//   - OutputBuffer: per-instance upstream backup logs that are replayed
//     after failures and trimmed when downstream checkpoints commit (§5);
//   - Dedup: per-origin scalar-timestamp filters that discard duplicate
//     items during replay ("downstream nodes detect duplicate data items
//     based on the timestamps and discard them");
//   - Gather: the all-to-one synchronisation barrier that assembles one
//     partial result per upstream instance into a Collection for merge TEs
//     (§3.2, §4.2 rule 5);
//   - Router: the four dispatching strategies of §3.1/§4.2.
package dataflow

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/state"
)

// OutputBuffer logs the items an upstream TE instance emitted on one edge,
// in seq order, so they can be replayed to re-feed a recovering downstream
// node. Buffers are trimmed when every downstream checkpoint covers a
// prefix ("upstream nodes can trim their output buffers of data items that
// are older than all downstream checkpoints").
type OutputBuffer struct {
	mu    sync.Mutex
	items []core.Item
	bytes int64
}

// Append logs one emitted item.
func (b *OutputBuffer) Append(it core.Item) {
	b.mu.Lock()
	b.items = append(b.items, it)
	b.bytes += itemCost(it)
	b.mu.Unlock()
}

// AppendBatch logs a micro-batch of emitted items under one lock
// acquisition; the batch hot path uses it so logging cost amortises over
// the batch instead of paying a mutex round trip per item.
func (b *OutputBuffer) AppendBatch(items []core.Item) {
	if len(items) == 0 {
		return
	}
	b.mu.Lock()
	for _, it := range items {
		b.items = append(b.items, it)
		b.bytes += itemCost(it)
	}
	b.mu.Unlock()
}

// itemCost approximates the retained size of a buffered item.
func itemCost(it core.Item) int64 {
	const header = 48 // Item struct: 5 words + interface header
	return header + valueCost(it.Value)
}

// valueCost approximates the retained payload size of an item value,
// descending into gathered collections so a buffered merge input accounts
// for the partial results it carries, not just the slice header.
func valueCost(v any) int64 {
	switch v := v.(type) {
	case []byte:
		return int64(len(v))
	case string:
		return int64(len(v))
	case core.Collection:
		const sliceHeader, ifaceHeader = 24, 16
		total := int64(sliceHeader)
		for _, e := range v {
			total += ifaceHeader + valueCost(e)
		}
		return total
	default:
		return 0
	}
}

// Trim drops items whose (origin, seq) is covered by the watermarks: an
// item survives only if its origin is absent or its Seq is newer. A nil map
// trims nothing.
func (b *OutputBuffer) Trim(watermarks map[uint64]uint64) {
	if len(watermarks) == 0 {
		return
	}
	b.mu.Lock()
	kept := b.items[:0]
	var bytes int64
	for _, it := range b.items {
		if wm, ok := watermarks[it.Origin]; ok && it.Seq <= wm {
			continue
		}
		kept = append(kept, it)
		bytes += itemCost(it)
	}
	b.items = kept
	b.bytes = bytes
	b.mu.Unlock()
}

// TrimPrefix drops the leading items of origin at or below seq: what a log
// written in seq order no longer needs once every reader is past seq.
func (b *OutputBuffer) TrimPrefix(origin, seq uint64) {
	b.mu.Lock()
	n := 0
	for ; n < len(b.items) && b.items[n].Origin == origin && b.items[n].Seq <= seq; n++ {
		b.bytes -= itemCost(b.items[n])
	}
	clear(b.items[:n]) // the array outlives the trim until append outgrows it
	b.items = b.items[n:]
	b.mu.Unlock()
}

// Rewrite replaces the buffered items with what f returns for them, under
// the buffer's lock. f may filter the slice in place, which spares a
// caller that drops most of a long buffer the copy Replay would make.
func (b *OutputBuffer) Rewrite(f func(items []core.Item) []core.Item) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items, b.bytes = f(b.items), 0
	for _, it := range b.items {
		b.bytes += itemCost(it)
	}
}

// Read hands f the buffered items under the buffer's lock, without the
// copy Replay makes; f must not retain the slice or call into the buffer.
func (b *OutputBuffer) Read(f func(items []core.Item) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return f(b.items)
}

// Replay returns a copy of the buffered items in append order.
func (b *OutputBuffer) Replay() []core.Item {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]core.Item, len(b.items))
	copy(out, b.items)
	return out
}

// Len reports the number of buffered items.
func (b *OutputBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// SizeBytes reports the approximate retained size.
func (b *OutputBuffer) SizeBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// Dedup filters replayed duplicates: an item is fresh only if its Seq is
// greater than the last Seq seen from its origin. Watermarks round-trip
// through checkpoints so a restored node resumes filtering where the
// snapshot left off.
type Dedup struct {
	mu   sync.Mutex
	last map[uint64]uint64
}

// NewDedup returns an empty filter.
func NewDedup() *Dedup {
	return &Dedup{last: make(map[uint64]uint64)}
}

// Fresh records and reports whether the item advances its origin's
// timestamp. Duplicates (and reordered stale items) return false.
func (d *Dedup) Fresh(it core.Item) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if last, ok := d.last[it.Origin]; ok && it.Seq <= last {
		return false
	}
	d.last[it.Origin] = it.Seq
	return true
}

// FreshBatch filters a micro-batch under one lock acquisition: fresh items
// are recorded and appended to keep (caller-owned scratch, typically reused
// across batches), in input order. Within a batch, later items from the
// same origin must still advance the timestamp, exactly as if Fresh had
// been called per item.
func (d *Dedup) FreshBatch(items []core.Item, keep []core.Item) []core.Item {
	d.mu.Lock()
	for _, it := range items {
		if last, ok := d.last[it.Origin]; ok && it.Seq <= last {
			continue
		}
		d.last[it.Origin] = it.Seq
		keep = append(keep, it)
	}
	d.mu.Unlock()
	return keep
}

// Last reports the highest seq seen from origin, 0 if none.
func (d *Dedup) Last(origin uint64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last[origin]
}

// Watermarks snapshots the per-origin high-water marks (the "vector
// timestamp of the last data item from each input dataflow" stored in
// checkpoints, §5).
func (d *Dedup) Watermarks() map[uint64]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[uint64]uint64, len(d.last))
	for k, v := range d.last {
		out[k] = v
	}
	return out
}

// Fold raises the per-origin watermarks to at least the given values,
// leaving higher local marks untouched. Reshaping uses it to fold every
// instance's processed history into the whole new layout: after the old
// partitions' state is rebuilt, items any old instance processed must read
// as duplicates wherever the new routing sends them, a grown instance
// included. Folding is only safe at quiescence — with no undelivered items
// in flight, every seq at or below the folded mark has been processed by
// some instance whose state effects the new layout now holds.
func (d *Dedup) Fold(w map[uint64]uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for o, s := range w {
		if cur, ok := d.last[o]; !ok || s > cur {
			d.last[o] = s
		}
	}
}

// Restore resets the filter to the given watermarks.
func (d *Dedup) Restore(w map[uint64]uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.last = make(map[uint64]uint64, len(w))
	for k, v := range w {
		d.last[k] = v
	}
}

// Gather assembles all-to-one collections: for each request id it waits for
// the expected number of partial results (Item.Parts), then releases them
// as a core.Collection. Partial results from re-played duplicates of the
// same origin overwrite rather than double-count.
type Gather struct {
	mu      sync.Mutex
	pending map[uint64]map[uint64]any // reqID -> origin -> value
}

// NewGather returns an empty barrier.
func NewGather() *Gather {
	return &Gather{pending: make(map[uint64]map[uint64]any)}
}

// Add records one partial result. When the collection is complete it is
// returned with done=true and the request's slot is released.
func (g *Gather) Add(it core.Item) (coll core.Collection, done bool) {
	return g.fill(it, true)
}

// Refill records a partial result that the dedup filter flagged as a
// duplicate. Duplicates only fill holes in waves that are still pending —
// the case where the original delivery was lost with a failed instance and
// a recovered upstream re-emits it under an already-seen timestamp. A wave
// that already completed is never recreated, so replayed duplicates cannot
// re-invoke the merge computation. Fire-and-forget waves (request id 0)
// are excluded: every such wave shares pending key 0, so a stale duplicate
// from an earlier wave could otherwise complete the current wave with a
// previous generation's value and permanently shift wave alignment —
// those duplicates are simply dropped, as they were pre-batching.
func (g *Gather) Refill(it core.Item) (coll core.Collection, done bool) {
	if it.ReqID == 0 {
		return nil, false
	}
	return g.fill(it, false)
}

// fill is the shared wave bookkeeping behind Add and Refill.
func (g *Gather) fill(it core.Item, mayCreate bool) (coll core.Collection, done bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.pending[it.ReqID]
	if m == nil {
		if !mayCreate {
			return nil, false
		}
		m = make(map[uint64]any, it.Parts)
		g.pending[it.ReqID] = m
	}
	m[it.Origin] = it.Value
	if it.Parts > 0 && len(m) >= it.Parts {
		delete(g.pending, it.ReqID)
		coll = make(core.Collection, 0, len(m))
		for _, v := range m {
			coll = append(coll, v)
		}
		return coll, true
	}
	return nil, false
}

// Evict drops every pending wave whose request id matches drop, returning
// the number of waves evicted. Recovery uses it to release waves that can
// never complete, e.g. request/reply waves whose external caller has
// already given up — without eviction such waves leak in pending forever.
func (g *Gather) Evict(drop func(reqID uint64) bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for req := range g.pending {
		if drop(req) {
			delete(g.pending, req)
			n++
		}
	}
	return n
}

// Pending reports the number of incomplete collections (for monitoring).
func (g *Gather) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// Router selects destination instance indices for an item according to the
// edge's dispatch semantics. Routing agrees with state partitioning because
// both use state.PartitionKey.
type Router struct {
	Dispatch core.Dispatch
	rr       atomic.Uint64
}

// Route returns the downstream instance indices the item must go to, given
// the current downstream instance count. The slice for one-to-all dispatch
// covers all instances; other strategies return a single index.
func (r *Router) Route(it core.Item, instances int) []int {
	if instances <= 0 {
		return nil
	}
	switch r.Dispatch {
	case core.DispatchPartitioned:
		return []int{state.PartitionKey(it.Key, instances)}
	case core.DispatchOneToAny:
		n := r.rr.Add(1)
		return []int{int(n % uint64(instances))}
	case core.DispatchOneToAll:
		all := make([]int, instances)
		for i := range all {
			all[i] = i
		}
		return all
	case core.DispatchAllToOne:
		// Collections converge on a single merge instance.
		return []int{0}
	default:
		return []int{0}
	}
}

// RouteBatch routes a micro-batch for the per-item single-target dispatch
// strategies, appending one destination index per item into dst (a
// caller-owned scratch buffer, typically reused across batches) and
// returning it. Unlike Route it performs no allocation when dst has
// capacity. DispatchOneToAll (every live instance gets the batch) and
// DispatchOneToAny (the whole batch goes to the least-loaded live
// instance, not per-item round robin) have no per-item target and are
// handled by the delivery layer; routing them here would silently diverge
// from those semantics, so both panic.
func (r *Router) RouteBatch(items []core.Item, instances int, dst []int) []int {
	if instances <= 0 {
		return dst
	}
	switch r.Dispatch {
	case core.DispatchPartitioned:
		for i := range items {
			dst = append(dst, state.PartitionKey(items[i].Key, instances))
		}
	case core.DispatchOneToAll:
		panic("dataflow: RouteBatch does not support one-to-all; use the broadcast path")
	case core.DispatchOneToAny:
		panic("dataflow: RouteBatch does not support one-to-any; use the least-loaded delivery path")
	default: // DispatchAllToOne and unknown: converge on instance 0.
		for range items {
			dst = append(dst, 0)
		}
	}
	return dst
}
