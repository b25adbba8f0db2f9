package state

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// maxKVStripes bounds the stripe count; beyond this the per-stripe maps are
// too small for striping to pay for its fixed cost.
const maxKVStripes = 256

// valueCodec is what the store core needs to know about one value type.
type valueCodec[V any] interface {
	// size is v's share of the accounted footprint, beyond the table's
	// fixed per-entry overhead.
	size(v V) int64
	// encode appends v's length-prefixed encoding, the value half of a
	// chunk entry.
	encode(dst []byte, v V) []byte
	// decode parses key k's value bytes (the length prefix stripped),
	// reporting false for an entry the view cannot hold; the bytes alias
	// the chunk, so a decoded value must not retain them.
	decode(k uint64, b []byte) (V, bool)
	// clone copies v for the dirty overlay's copy-on-write.
	clone(v V) V
	// blank reports a filler value: a base entry holding it restores only
	// into an absent key, never over a present one, so base pieces from
	// several sources merge (a Vector's zeros).
	blank(v V) bool
}

// entries is a stripe's base storage: a hash map for the dictionary and
// the matrix, dense blocks for the vector (vecEntries).
type entries[V any, B any] interface {
	get(k uint64) (V, bool)
	set(k uint64, v V)
	del(k uint64)
	len() int
	all(yield func(k uint64, v V) bool)
	// cleared returns the storage emptied, as Clear leaves it; it is
	// called on the zero B too.
	cleared() B
}

// hashEntries is the hash-map base.
type hashEntries[V any] map[uint64]V

func (h hashEntries[V]) get(k uint64) (V, bool)  { v, ok := h[k]; return v, ok }
func (h hashEntries[V]) set(k uint64, v V)       { h[k] = v }
func (h hashEntries[V]) del(k uint64)            { delete(h, k) }
func (h hashEntries[V]) len() int                { return len(h) }
func (h hashEntries[V]) cleared() hashEntries[V] { return make(hashEntries[V]) }

func (h hashEntries[V]) all(yield func(uint64, V) bool) {
	for k, v := range h {
		if !yield(k, v) {
			return
		}
	}
}

// table is the store core every SE view is built on (§3.2: dictionary,
// matrix and vector are all key-partitioned state): uint64 keys mapped to
// values of one type, with the §5 dirty-state protocol, delta tracking and
// the one chunk entry format. KVMap holds byte values, Matrix rows keyed by
// row id, Vector elements keyed by index; B is the base storage.
//
// The key space is divided over N lock stripes (N a power of two), each
// owning a base map, dirty overlay, tombstone set, dirtyCtl, size counter
// and changed-key tracker. stripe(key) == PartitionKey(key, N), so the
// stripe layout agrees with restore-time chunk splits and the dataflow
// dispatchers, and chunks restore into a table of any stripe count.
// BeginDirty acquires every stripe's base lock (in stripe order; writers
// hold at most one) before flipping any flag, so the dirty-mode snapshot
// has a single linearisation point. A stream read outside dirty mode is
// only per-stripe consistent: per the Store contract, non-dirty
// checkpoints are for quiescent stores.
//
// Views write through update, which edits a value in place: in clean mode
// it mutates the base value under the stripe lock; in dirty mode the first
// write of a base entry clones it into the overlay, so the frozen base a
// checkpoint streams never changes under it. The dictionary's Put, which
// replaces a value whole, has its own path (KVMap.Put).
type table[V any, B entries[V, B]] struct {
	stripes  []*stripe[V, B]
	mask     uint64
	dirty    atomic.Bool // table-level view of the per-stripe flags
	typ      StoreType
	codec    valueCodec[V]
	overhead int64 // accounted bytes per entry beyond codec.size

	// lifecycle serialises the multi-stripe structural operations —
	// BeginDirty, MergeDirty and the delta tracker cuts — against each
	// other. Writers never take it, so the dirty window stays
	// writer-transparent.
	lifecycle sync.Mutex
	// cutMu makes whole-table Clear atomic against BeginDirty's flip (the
	// snapshot cut): the flip holds it exclusively, Clear holds it shared,
	// so a clear lands entirely before or entirely after any cut and a
	// checkpoint can never capture a half-cleared table. Clear stays
	// concurrent with a checkpoint stream itself. Order: lifecycle, then
	// cutMu, then stripe locks.
	cutMu sync.RWMutex
}

// stripe is one lock stripe: a base map guarded by the dirty-state
// protocol's two locks (dirtyCtl), its overlay and tombstones, and its
// share of the changed-key tracker.
type stripe[V any, B entries[V, B]] struct {
	dirtyCtl
	base  B
	ovl   map[uint64]V        // dirty overlay
	tomb  map[uint64]struct{} // keys deleted while dirty
	size  atomic.Int64        // approximate bytes; atomic because both lock domains update it
	delta deltaTrack          // changed-key tracker for incremental checkpoints
}

// init builds an empty table of n stripes (n a power of two).
func (t *table[V, B]) init(typ StoreType, codec valueCodec[V], overhead int64, n int) {
	t.typ, t.codec, t.overhead = typ, codec, overhead
	t.stripes, t.mask = make([]*stripe[V, B], n), uint64(n-1)
	for i := range t.stripes {
		var empty B
		t.stripes[i] = &stripe[V, B]{
			base: empty.cleared(),
			ovl:  make(map[uint64]V),
			tomb: make(map[uint64]struct{}),
		}
	}
}

// stripe routes a key to its stripe. Equivalent to PartitionKey(key,
// len(stripes)) because the stripe count is a power of two.
func (t *table[V, B]) stripe(key uint64) *stripe[V, B] {
	return t.stripes[mix64(key)&t.mask]
}

// cost is the accounted footprint of one entry holding v.
func (t *table[V, B]) cost(v V) int64 { return t.overhead + t.codec.size(v) }

// Type reports the view's store type.
func (t *table[V, B]) Type() StoreType { return t.typ }

// Dirty reports whether the store is in dirty mode (a checkpoint snapshot
// is in flight).
func (t *table[V, B]) Dirty() bool { return t.dirty.Load() }

// with runs fn on key's live value under the lock that guards it, so fn
// may read a value that update edits in place.
func (t *table[V, B]) with(key uint64, fn func(v V, ok bool)) {
	s := t.stripe(key)
	if s.dirty.Load() {
		s.dmu.RLock()
		v, ok := s.ovl[key]
		_, dead := s.tomb[key]
		if ok || dead {
			fn(v, ok)
			s.dmu.RUnlock()
			return
		}
		s.dmu.RUnlock()
	}
	s.mu.RLock()
	v, ok := s.base.get(key)
	fn(v, ok)
	s.mu.RUnlock()
}

// update edits key's live value in place: fn gets the value (ok=false when
// absent) and returns the value to store, or keep=false to leave the entry
// as it is.
func (t *table[V, B]) update(key uint64, fn func(v V, ok bool) (V, bool)) {
	s := t.stripe(key)
	dirty := s.lockWrite()
	t.modify(s, dirty, key, fn)
	s.unlockWrite(dirty)
}

// lockWrite takes s for an in-place write and reports the mode: clean, the
// base lock; dirty, the base lock shared (which holds the mode and the
// frozen base a first touch clones) and the overlay lock. Lock order is mu
// before dmu, as everywhere.
func (s *stripe[V, B]) lockWrite() (dirty bool) {
	for {
		if !s.dirty.Load() {
			s.mu.Lock()
			if !s.dirty.Load() {
				return false
			}
			s.mu.Unlock() // BeginDirty won the race
			continue
		}
		s.mu.RLock()
		if s.dirty.Load() {
			s.dmu.Lock()
			return true
		}
		s.mu.RUnlock() // MergeDirty won the race
	}
}

func (s *stripe[V, B]) unlockWrite(dirty bool) {
	if dirty {
		s.dmu.Unlock()
		s.mu.RUnlock()
		return
	}
	s.mu.Unlock()
}

// modify is update's body, s held by lockWrite in the given mode.
func (t *table[V, B]) modify(s *stripe[V, B], dirty bool, key uint64, fn func(v V, ok bool) (V, bool)) {
	var cur V
	var ok bool
	var was int64
	if dirty {
		if cur, ok = s.ovl[key]; ok {
			was = t.cost(cur) // before fn edits cur in place
		} else if _, dead := s.tomb[key]; !dead {
			if cur, ok = s.base.get(key); ok {
				cur = t.codec.clone(cur) // copy-on-write: the base stays frozen
			}
		}
	} else if cur, ok = s.base.get(key); ok {
		was = t.cost(cur)
	}
	v, keep := fn(cur, ok)
	if !keep {
		return
	}
	s.size.Add(t.cost(v) - was)
	if dirty {
		s.ovl[key] = v
		delete(s.tomb, key)
	} else {
		s.base.set(key, v)
		s.delta.record(key)
	}
}

// del removes key, reporting whether it was (logically) present.
func (t *table[V, B]) del(key uint64) bool {
	s := t.stripe(key)
	dirty := s.lockWrite()
	defer s.unlockWrite(dirty)
	if !dirty {
		old, ok := s.base.get(key)
		if ok {
			s.size.Add(-t.cost(old))
			s.base.del(key)
			s.delta.record(key)
		}
		return ok
	}
	old, inOvl := s.ovl[key]
	_, dead := s.tomb[key]
	_, inBase := s.base.get(key)
	if inOvl {
		s.size.Add(-t.cost(old))
		delete(s.ovl, key)
	}
	s.tomb[key] = struct{}{}
	return inOvl || inBase && !dead
}

// scan visits every live entry — the overlay over the base, tombstoned
// keys hidden — holding each stripe's locks for that stripe's whole share.
// It stops when fn returns false.
func (t *table[V, B]) scan(fn func(k uint64, v V) bool) {
	for _, s := range t.stripes {
		s.rlock()
		more := s.eachLive(fn)
		s.runlock()
		if !more {
			return
		}
	}
}

// rlock read-locks both of the stripe's lock domains, base first.
func (s *stripe[V, B]) rlock() {
	s.mu.RLock()
	s.dmu.RLock()
}

func (s *stripe[V, B]) runlock() {
	s.dmu.RUnlock()
	s.mu.RUnlock()
}

// eachLive is scan over one stripe held by rlock.
func (s *stripe[V, B]) eachLive(fn func(k uint64, v V) bool) bool {
	for k, v := range s.base.all {
		if _, shadowed := s.ovl[k]; shadowed {
			continue
		}
		if _, dead := s.tomb[k]; dead {
			continue
		}
		if !fn(k, v) {
			return false
		}
	}
	for k, v := range s.ovl {
		if !fn(k, v) {
			return false
		}
	}
	return true
}

// keys yields the stripe's base keys.
func (s *stripe[V, B]) keys(yield func(uint64) bool) {
	for k := range s.base.all {
		if !yield(k) {
			return
		}
	}
}

// liveLen is the stripe's logical entry count, held by rlock.
func (s *stripe[V, B]) liveLen() int {
	n := s.base.len()
	for k := range s.ovl {
		if _, inBase := s.base.get(k); !inBase {
			n++
		}
	}
	for k := range s.tomb {
		if _, inBase := s.base.get(k); inBase {
			n--
		}
	}
	return n
}

// NumEntries reports the logical number of live entries.
func (t *table[V, B]) NumEntries() int {
	n := 0
	for _, s := range t.stripes {
		s.rlock()
		n += s.liveLen()
		s.runlock()
	}
	return n
}

// SizeBytes reports the approximate memory footprint.
func (t *table[V, B]) SizeBytes() int64 {
	var n int64
	for _, s := range t.stripes {
		n += s.size.Load()
	}
	return n
}

// BeginDirty enters dirty mode (see Store). Every stripe's base lock is
// held while the flags flip, so the snapshot cut is atomic across stripes.
func (t *table[V, B]) BeginDirty() error {
	t.lifecycle.Lock()
	defer t.lifecycle.Unlock()
	t.cutMu.Lock()
	defer t.cutMu.Unlock()
	for _, s := range t.stripes {
		s.mu.Lock()
	}
	defer func() {
		for i := len(t.stripes) - 1; i >= 0; i-- {
			t.stripes[i].mu.Unlock()
		}
	}()
	if t.dirty.Load() {
		return ErrDirtyActive
	}
	for _, s := range t.stripes {
		s.dirty.Store(true)
	}
	t.dirty.Store(true)
	return nil
}

// DirtySize reports the number of overlay entries plus tombstones.
func (t *table[V, B]) DirtySize() int {
	n := 0
	for _, s := range t.stripes {
		s.dmu.RLock()
		n += len(s.ovl) + len(s.tomb)
		s.dmu.RUnlock()
	}
	return n
}

// MergeDirty consolidates the overlay into the base (see Store), one
// stripe at a time: each stripe's merge holds only that stripe's locks, so
// the stop-the-writers window is per stripe.
func (t *table[V, B]) MergeDirty() (int, error) {
	t.lifecycle.Lock()
	defer t.lifecycle.Unlock()
	if !t.dirty.Load() {
		return 0, ErrDirtyInactive
	}
	n := 0
	for _, s := range t.stripes {
		unlock, err := s.lockMerge()
		if err != nil {
			return n, err
		}
		n += t.merge(s)
		unlock()
	}
	t.dirty.Store(false)
	return n, nil
}

// merge folds a stripe's overlay into its base. Both stripe locks held.
func (t *table[V, B]) merge(s *stripe[V, B]) int {
	n := len(s.ovl) + len(s.tomb)
	// Retain the merged overlay: the window's updates and tombstones belong
	// to the next delta epoch.
	s.delta.note(maps.Keys(s.ovl))
	s.delta.note(maps.Keys(s.tomb))
	for k, v := range s.ovl {
		if old, ok := s.base.get(k); ok {
			// Both copies were counted while dirty; drop the stale one.
			s.size.Add(-t.cost(old))
		}
		s.base.set(k, v)
	}
	for k := range s.tomb {
		if old, ok := s.base.get(k); ok {
			s.size.Add(-t.cost(old))
			s.base.del(k)
		}
	}
	s.ovl = make(map[uint64]V)
	s.tomb = make(map[uint64]struct{})
	return n
}

// Clear removes all entries. In dirty mode each stripe's base keys are
// tombstoned in its overlay so the in-flight checkpoint still sees the
// pre-clear state; otherwise the bases are dropped wholesale. cutMu keeps
// the table-wide clear on one side of any concurrent BeginDirty cut.
// Windowed applications use it to rotate state between windows.
func (t *table[V, B]) Clear() {
	t.cutMu.RLock()
	defer t.cutMu.RUnlock()
	for _, s := range t.stripes {
		t.clear(s)
	}
}

func (t *table[V, B]) clear(s *stripe[V, B]) {
	for {
		if s.dirty.Load() {
			// Lock order: mu before dmu. Both locks are held together so
			// the dirty flag cannot flip mid-clear (BeginDirty needs mu
			// exclusively, MergeDirty needs both): a flip after the keys
			// were collected would plant stale tombstones that delete
			// live data at the next checkpoint.
			s.mu.RLock()
			if !s.dirty.Load() {
				s.mu.RUnlock()
				continue // MergeDirty won the race; take the base path
			}
			s.dmu.Lock()
			for _, v := range s.ovl {
				s.size.Add(-t.cost(v))
			}
			s.ovl = make(map[uint64]V)
			for k := range s.base.all {
				s.tomb[k] = struct{}{}
			}
			s.dmu.Unlock()
			s.mu.RUnlock()
			return
		}
		s.mu.Lock()
		if s.dirty.Load() {
			s.mu.Unlock()
			continue // lost the race with BeginDirty; take the overlay path
		}
		s.delta.note(s.keys) // wiped keys need tombstones in the next delta
		s.base = s.base.cleared()
		s.size.Store(0)
		s.mu.Unlock()
		return
	}
}

// Restore merges the given base chunks into the store, decoding them in
// order.
func (t *table[V, B]) Restore(chunks []Chunk) error {
	for _, c := range chunks {
		if c.Type != t.typ {
			return fmt.Errorf("%w: got %v, want %v", ErrWrongChunkType, c.Type, t.typ)
		}
		if c.Delta {
			return ErrDeltaChunk
		}
		if err := t.apply(c.Data, false); err != nil {
			return err
		}
	}
	return nil
}

// apply decodes one chunk body, a base or a delta, into puts and deletes.
func (t *table[V, B]) apply(data []byte, delta bool) error {
	d := newDecoder(data)
	readEntries(d, func(k uint64, b []byte) {
		v, ok := t.codec.decode(k, b)
		if !ok {
			d.fail()
			return
		}
		fill := !delta && t.codec.blank(v)
		t.update(k, func(cur V, ok bool) (V, bool) { return v, !ok || !fill })
	})
	if delta {
		readKeys(d, func(k uint64) { t.del(k) })
	}
	return d.err
}

// splitChunk re-partitions a base chunk of any store type n ways by key
// hash. Values pass through as bytes, so one split serves every view.
func splitChunk(c Chunk, n int) ([]Chunk, error) {
	d := newDecoder(c.Data)
	bodies := make([]*encoder, n)
	counts := make([]uint64, n)
	for i := range bodies {
		bodies[i] = newCountedBody(len(c.Data)/n + 16)
	}
	readEntries(d, func(k uint64, v []byte) {
		p := PartitionKey(k, n)
		bodies[p].uvarint(k)
		bodies[p].bytes(v)
		counts[p]++
	})
	if d.err != nil {
		return nil, d.err
	}
	out := make([]Chunk, n)
	for i := range out {
		out[i] = Chunk{Type: c.Type, Index: i, Of: n, Data: sealCount(bodies[i], counts[i])}
	}
	return out, nil
}
