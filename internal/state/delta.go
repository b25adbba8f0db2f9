package state

import (
	"iter"
	"sync"
	"sync/atomic"
)

// Delta checkpoints (incremental snapshots) extend the §5 dirty-state
// machinery: instead of serialising the full base every epoch, a store can
// track which keys changed since the last committed checkpoint cut and emit
// only those — updated keys with their current values plus tombstones for
// deleted keys. For a large dictionary with low churn this cuts the bytes
// encoded, transferred and written per epoch by orders of magnitude.
//
// The wire format is a versioned extension of the base chunk format: a
// delta chunk (Chunk.Delta == true, of any store type) carries
//
//	uvarint(updateCount) updateCount × (uvarint(key), uvarint(len)+bytes)
//	uvarint(tombCount)   tombCount   × uvarint(key)
//
// i.e. the base format's entry list followed by a tombstone key list.
// SplitChunk re-splits delta chunks n ways by key hash exactly like base
// chunks, so the m-to-n parallel restore of Fig. 4 works unchanged: each
// recovering instance applies its base group first, then its delta groups
// in epoch order.
//
// Tracking follows a two-phase commit so that an aborted backup never loses
// changes: DeltaStream (or CutDelta for a full checkpoint) atomically
// snapshots the changed-key set into a pending cut and resets the live set;
// CommitDelta drops the pending cut once the epoch is durably saved, while
// AbortDelta folds it back into the live set so the next epoch re-covers
// the same keys. The §5 lock discipline makes the cut consistent: both
// operations run between BeginDirty and MergeDirty, when the base is frozen
// and base-path writers (the only ones that record into the live set
// directly) are diverted to the overlay; MergeDirty then retains the merged
// overlay — updated keys plus tombstones — in the live set, so writes that
// landed during the checkpoint window belong to the *next* epoch.

// deltaTrack is the changed-key tracker embedded in each lock stripe of
// the store core. The `on` flag is read on every base write, so it is atomic and
// checked first; when tracking is off the hot path pays a single atomic
// load.
//
// Locking. The live set is guarded by the owning stripe's base lock: record,
// which runs once per base write, is called with that lock held exclusively
// and takes nothing else. Every other method that touches the live set is
// called with the base lock held too — shared is enough, it excludes record
// — and additionally takes mu, which orders those methods against each
// other and guards the pending cut. commit touches only the pending cut and
// needs no base lock.
type deltaTrack struct {
	on      atomic.Bool
	mu      sync.Mutex
	changed map[uint64]struct{} // keys mutated since the last cut
	pending map[uint64]struct{} // cut awaiting CommitDelta/AbortDelta
}

func (t *deltaTrack) enable() {
	t.mu.Lock()
	if t.changed == nil {
		t.changed = make(map[uint64]struct{})
	}
	t.on.Store(true)
	t.mu.Unlock()
}

// record notes one mutated key. The caller holds the store's base lock
// exclusively, which is what keeps every other method out (see deltaTrack).
func (t *deltaTrack) record(key uint64) {
	if !t.on.Load() {
		return
	}
	t.changed[key] = struct{}{}
}

// note records keys as changed: a merged dirty overlay's keys and
// tombstones (the window's writes belong to the next delta epoch), or a
// base's keys before a wholesale wipe (Clear), so the next delta
// tombstones them. Base lock held exclusively.
func (t *deltaTrack) note(keys iter.Seq[uint64]) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	for k := range keys {
		t.changed[k] = struct{}{}
	}
	t.mu.Unlock()
}

// cut snapshots the tracked keys into the pending set and resets the live
// set. An uncommitted earlier cut (a save that was never committed or
// aborted) is folded in defensively so no change can be dropped. The caller
// holds the base lock (shared: cuts run while writers are diverted to the
// overlay, or on a quiescent store) and owns the returned set until commit
// or abort.
func (t *deltaTrack) cut() map[uint64]struct{} {
	if !t.on.Load() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	eff := t.changed
	for k := range t.pending {
		eff[k] = struct{}{}
	}
	t.pending = eff
	// Sized for a window like the last one, so a busy store does not
	// regrow the set from nothing after every cut.
	t.changed = make(map[uint64]struct{}, len(eff))
	return eff
}

// commit drops the pending cut: its keys are durably covered by the saved
// epoch.
func (t *deltaTrack) commit() {
	t.mu.Lock()
	t.pending = nil
	t.mu.Unlock()
}

// abort folds the pending cut back into the live set: the save failed, so
// the next epoch must cover these keys again. Base lock held.
func (t *deltaTrack) abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending == nil {
		return
	}
	if len(t.changed) == 0 {
		t.changed = t.pending
	} else {
		for k := range t.pending {
			t.changed[k] = struct{}{}
		}
	}
	t.pending = nil
}

// size reports the live set's key count. Base lock held.
func (t *deltaTrack) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.changed)
}

// deltaEnc builds one delta chunk in place: update entries go straight
// into a counted body, tombstone keys into a side buffer that seal appends
// after them.
type deltaEnc struct {
	body, tmb  *encoder
	ucnt, tcnt uint64
}

// update appends one update entry, its value already encoded as bytes.
func (e *deltaEnc) update(k uint64, v []byte) {
	e.body.uvarint(k)
	e.body.bytes(v)
	e.ucnt++
}

func (e *deltaEnc) tombstone(k uint64) {
	e.tmb.uvarint(k)
	e.tcnt++
}

// size is the encoded payload accumulated so far.
func (e *deltaEnc) size() int { return len(e.body.buf) - countRoom + len(e.tmb.buf) }

// seal joins the tombstones to the updates and returns the chunk's bytes.
func (e *deltaEnc) seal() []byte {
	e.body.uvarint(e.tcnt)
	e.body.buf = append(e.body.buf, e.tmb.buf...)
	return sealCount(e.body, e.ucnt)
}

// applyDeltaChunk decodes one delta chunk of any store type into put and
// delete callbacks; put's value bytes alias the chunk.
func applyDeltaChunk(c Chunk, put func(uint64, []byte), del func(uint64)) error {
	if !c.Delta {
		return ErrNotDelta
	}
	d := newDecoder(c.Data)
	readEntries(d, put)
	readKeys(d, del)
	return d.err
}

// splitDeltaChunk re-partitions one delta chunk into n delta chunks,
// mirroring splitChunk for the restore-time m-to-n fan-out.
func splitDeltaChunk(c Chunk, n int) ([]Chunk, error) {
	encs := make([]deltaEnc, n)
	for i := range encs {
		encs[i] = deltaEnc{body: newCountedBody(len(c.Data)/n + 16), tmb: newEncoder(16)}
	}
	err := applyDeltaChunk(c,
		func(k uint64, v []byte) { encs[PartitionKey(k, n)].update(k, v) },
		func(k uint64) { encs[PartitionKey(k, n)].tombstone(k) })
	if err != nil {
		return nil, err
	}
	out := make([]Chunk, n)
	for i := range encs {
		out[i] = Chunk{Type: c.Type, Index: i, Of: n, Delta: true, Data: encs[i].seal()}
	}
	return out, nil
}

// EnableDeltaTracking starts recording changed keys so DeltaStream can
// serialise incremental epochs. The first checkpoint after enabling must be
// a full one: only changes made after this call are tracked.
func (t *table[V, B]) EnableDeltaTracking() {
	for _, s := range t.stripes {
		s.delta.enable()
	}
}

// DeltaTracking reports whether changed-key tracking is on.
func (t *table[V, B]) DeltaTracking() bool { return t.stripes[0].delta.on.Load() }

// DeltaSize reports the number of keys changed since the last cut.
func (t *table[V, B]) DeltaSize() int {
	n := 0
	for _, s := range t.stripes {
		s.mu.RLock()
		n += s.delta.size()
		s.mu.RUnlock()
	}
	return n
}

// CutDelta snapshots and resets the changed-key tracker without
// serialising, marking a full checkpoint's cut point. Call between
// BeginDirty and MergeDirty (or on a quiescent store), then CommitDelta or
// AbortDelta once the epoch's fate is known.
func (t *table[V, B]) CutDelta() { t.cutStripes() }

// cutStripes cuts every stripe's tracker at one instant (under the
// lifecycle lock) and returns the per-stripe pending sets.
func (t *table[V, B]) cutStripes() []map[uint64]struct{} {
	t.lifecycle.Lock()
	defer t.lifecycle.Unlock()
	sets := make([]map[uint64]struct{}, len(t.stripes))
	for i, s := range t.stripes {
		s.mu.RLock()
		sets[i] = s.delta.cut()
		s.mu.RUnlock()
	}
	return sets
}

// CommitDelta drops the pending cut after a successful save.
func (t *table[V, B]) CommitDelta() {
	for _, s := range t.stripes {
		s.delta.commit()
	}
}

// AbortDelta restores the pending cut into the live tracker after a failed
// save.
func (t *table[V, B]) AbortDelta() {
	for _, s := range t.stripes {
		s.mu.RLock()
		s.delta.abort()
		s.mu.RUnlock()
	}
}

// ApplyDelta replays delta chunks onto the store: updates become puts,
// tombstones become deletes. Chunks from different epochs must be applied
// in separate calls in epoch order.
func (t *table[V, B]) ApplyDelta(chunks []Chunk) error {
	for _, c := range chunks {
		if c.Type != t.typ {
			return ErrWrongChunkType
		}
		if !c.Delta {
			return ErrNotDelta
		}
		if err := t.apply(c.Data, true); err != nil {
			return err
		}
	}
	return nil
}
