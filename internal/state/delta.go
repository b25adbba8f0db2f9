package state

import (
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
// delta chunk (Chunk.Delta == true, still TypeKVMap) carries
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

// deltaTrack is the changed-key tracker embedded in each dictionary lock
// stripe. The `on` flag is read on every base write, so it is atomic and
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

func (t *deltaTrack) enabled() bool { return t.on.Load() }

// record notes one mutated key. The caller holds the store's base lock
// exclusively, which is what keeps every other method out (see deltaTrack).
func (t *deltaTrack) record(key uint64) {
	if !t.on.Load() {
		return
	}
	t.changed[key] = struct{}{}
}

// noteMerge retains a merged dirty overlay: every overlay key and tombstone
// becomes part of the next epoch's delta. Base lock held exclusively.
func (t *deltaTrack) noteMerge(ovl map[uint64][]byte, tomb map[uint64]struct{}) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	for k := range ovl {
		t.changed[k] = struct{}{}
	}
	for k := range tomb {
		t.changed[k] = struct{}{}
	}
	t.mu.Unlock()
}

// noteBase records every key of a base map, used before wholesale wipes
// (Clear) so the next delta tombstones the removed keys. Base lock
// held exclusively.
func (t *deltaTrack) noteBase(base map[uint64][]byte) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	for k := range base {
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

// applyDeltaChunk decodes one delta chunk into put/delete callbacks.
func applyDeltaChunk(c Chunk, put func(uint64, []byte), del func(uint64)) error {
	if c.Type != TypeKVMap {
		return ErrWrongChunkType
	}
	if !c.Delta {
		return ErrNotDelta
	}
	d := newDecoder(c.Data)
	nu := d.uvarint()
	for i := uint64(0); i < nu && d.err == nil; i++ {
		k := d.uvarint()
		v := d.bytes()
		if d.err == nil {
			put(k, v)
		}
	}
	nt := d.uvarint()
	for i := uint64(0); i < nt && d.err == nil; i++ {
		k := d.uvarint()
		if d.err == nil {
			del(k)
		}
	}
	return d.err
}

// splitKVDeltaChunk re-partitions one delta chunk into n delta chunks,
// mirroring splitKVChunk for the restore-time m-to-n fan-out.
func splitKVDeltaChunk(c Chunk, n int) ([]Chunk, error) {
	encs := make([]deltaEnc, n)
	for i := range encs {
		encs[i] = deltaEnc{body: newCountedBody(len(c.Data)/n + 16), tmb: newEncoder(16)}
	}
	d := newDecoder(c.Data)
	nu := d.uvarint()
	for i := uint64(0); i < nu; i++ {
		k := d.uvarint()
		v := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		encs[PartitionKey(k, n)].update(k, v)
	}
	nt := d.uvarint()
	for i := uint64(0); i < nt; i++ {
		k := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		encs[PartitionKey(k, n)].tombstone(k)
	}
	if d.err != nil {
		return nil, d.err
	}
	out := make([]Chunk, n)
	for i := range encs {
		out[i] = Chunk{Type: TypeKVMap, Index: i, Of: n, Delta: true, Data: encs[i].seal()}
	}
	return out, nil
}

// EnableDeltaTracking starts recording changed keys so DeltaStream can
// serialise incremental epochs. The first checkpoint after enabling must be
// a full one: only changes made after this call are tracked.
func (m *KVMap) EnableDeltaTracking() {
	for _, s := range m.stripes {
		s.delta.enable()
	}
}

// DeltaTracking reports whether changed-key tracking is on.
func (m *KVMap) DeltaTracking() bool { return m.stripes[0].delta.enabled() }

// DeltaSize reports the number of keys changed since the last cut.
func (m *KVMap) DeltaSize() int {
	n := 0
	for _, s := range m.stripes {
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
func (m *KVMap) CutDelta() { m.cutStripes() }

// cutStripes cuts every stripe's tracker at one instant (under the
// lifecycle lock) and returns the per-stripe pending sets.
func (m *KVMap) cutStripes() []map[uint64]struct{} {
	m.lifecycle.Lock()
	defer m.lifecycle.Unlock()
	sets := make([]map[uint64]struct{}, len(m.stripes))
	for i, s := range m.stripes {
		s.mu.RLock()
		sets[i] = s.delta.cut()
		s.mu.RUnlock()
	}
	return sets
}

// CommitDelta drops the pending cut after a successful save.
func (m *KVMap) CommitDelta() {
	for _, s := range m.stripes {
		s.delta.commit()
	}
}

// AbortDelta restores the pending cut into the live tracker after a failed
// save.
func (m *KVMap) AbortDelta() {
	for _, s := range m.stripes {
		s.mu.RLock()
		s.delta.abort()
		s.mu.RUnlock()
	}
}

// ApplyDelta replays delta chunks onto the store: updates become puts,
// tombstones become deletes. Chunks from different epochs must be applied
// in separate calls in epoch order.
func (m *KVMap) ApplyDelta(chunks []Chunk) error {
	for _, c := range chunks {
		err := applyDeltaChunk(c,
			func(k uint64, v []byte) { m.Put(k, v) },
			func(k uint64) { m.Delete(k) })
		if err != nil {
			return err
		}
	}
	return nil
}
