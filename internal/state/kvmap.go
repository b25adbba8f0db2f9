package state

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// kvEntryOverhead approximates the per-entry bookkeeping cost (map bucket
// share, slice header) used for SizeBytes accounting.
const kvEntryOverhead = 48

// maxKVStripes bounds the stripe count; beyond this the per-stripe maps are
// too small for striping to pay for its fixed cost.
const maxKVStripes = 256

// KVMap is a dictionary SE: a hash map from uint64 keys to byte values with
// dirty-state support and streamed checkpoints. It backs the key/value store
// application used throughout the paper's evaluation.
//
// The key space is divided over N lock stripes (N a power of two), each
// owning its own base map, dirty overlay, tombstone set, dirtyCtl and
// changed-key tracker. NewKVMap builds one stripe — a single-lock store,
// which is what every deployment runs; NewShardedKVMap builds N, so writers
// to different stripes never contend. Stripe routing reuses the
// PartitionKey hash: because N is a power of two, stripe(key) ==
// PartitionKey(key, N), so the stripe layout agrees with the restore-time
// chunk splits and the dataflow dispatchers (§3.2). Chunks are in the one
// TypeKVMap wire format whatever N is, so a checkpoint restores into a
// store of any stripe count.
//
// The §5 invariant — no base write in flight when the dirty flag flips —
// holds across the whole store, not just per stripe: BeginDirty acquires
// every stripe's base lock (in stripe order, so it cannot deadlock against
// writers, which hold at most one) before flipping any flag, giving the
// dirty-mode snapshot a single linearisation point. A checkpoint stream
// read *outside* dirty mode locks stripes one at a time and is therefore
// only per-stripe consistent; per the Store contract, non-dirty checkpoints
// are for quiescent stores — use the BeginDirty/CheckpointStream/MergeDirty
// protocol for an atomic cut under load.
type KVMap struct {
	stripes []*kvStripe
	mask    uint64
	dirty   atomic.Bool // store-level view of the per-stripe flags

	// lifecycle serialises the multi-stripe structural operations —
	// BeginDirty, MergeDirty and the delta tracker cuts — against each
	// other. Writers never take it, so the dirty window stays
	// writer-transparent.
	lifecycle sync.Mutex
	// cutMu makes whole-store Clear atomic against BeginDirty's flip (the
	// snapshot cut): the flip holds it exclusively, Clear holds it shared,
	// so a clear lands entirely before or entirely after any cut and a
	// checkpoint can never capture a half-cleared store. Clear stays
	// concurrent with a checkpoint stream itself. Order: lifecycle, then
	// cutMu, then stripe locks.
	cutMu sync.RWMutex
}

// kvStripe is one lock stripe: a base map guarded by the dirty-state
// protocol's two locks (dirtyCtl), its overlay and tombstones, and its
// share of the changed-key tracker.
type kvStripe struct {
	dirtyCtl
	base  map[uint64][]byte
	ovl   map[uint64][]byte   // dirty overlay; nil values are not allowed
	tomb  map[uint64]struct{} // keys deleted while dirty
	size  atomic.Int64        // approximate bytes; atomic because both lock domains update it
	delta deltaTrack          // changed-key tracker for incremental checkpoints
}

// NewKVMap returns an empty single-lock dictionary store (one stripe).
func NewKVMap() *KVMap { return newKVMap(1) }

// NewShardedKVMap returns an empty dictionary store with n lock stripes,
// rounded up to a power of two and clamped to [1, 256]. n <= 0 selects a
// GOMAXPROCS-derived default.
func NewShardedKVMap(n int) *KVMap {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	// Clamp first: doubling towards a huge n would overflow.
	return newKVMap(ceilPow2(min(n, maxKVStripes)))
}

func newKVMap(n int) *KVMap {
	m := &KVMap{stripes: make([]*kvStripe, n), mask: uint64(n - 1)}
	for i := range m.stripes {
		m.stripes[i] = &kvStripe{
			base: make(map[uint64][]byte),
			ovl:  make(map[uint64][]byte),
			tomb: make(map[uint64]struct{}),
		}
	}
	return m
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// stripe routes a key to its stripe. Equivalent to PartitionKey(key,
// Stripes()) because the stripe count is a power of two.
func (m *KVMap) stripe(key uint64) *kvStripe {
	return m.stripes[mix64(key)&m.mask]
}

// Stripes reports the lock stripe count.
func (m *KVMap) Stripes() int { return len(m.stripes) }

// Type reports TypeKVMap.
func (m *KVMap) Type() StoreType { return TypeKVMap }

// Dirty reports whether the store is in dirty mode (a checkpoint snapshot
// is in flight).
func (m *KVMap) Dirty() bool { return m.dirty.Load() }

// Put stores value under key. The value is retained by reference; callers
// must not mutate it afterwards.
func (m *KVMap) Put(key uint64, value []byte) {
	s := m.stripe(key)
	grow := int64(len(value))
	if s.baseWriteOrDirty() {
		if old, ok := s.ovl[key]; ok {
			grow -= int64(len(old))
		} else {
			grow += kvEntryOverhead + 8
		}
		s.ovl[key] = value
		delete(s.tomb, key)
		s.size.Add(grow)
		s.dmu.Unlock()
		return
	}
	if old, ok := s.base[key]; ok {
		grow -= int64(len(old))
	} else {
		grow += kvEntryOverhead + 8
	}
	s.base[key] = value
	s.size.Add(grow)
	s.delta.record(key)
	s.mu.Unlock()
}

// Get returns the value for key. In dirty mode the overlay is consulted
// first, then the base (§5: "reads are first served by the dirty state and,
// only on a miss, by the dictionary").
func (m *KVMap) Get(key uint64) ([]byte, bool) {
	s := m.stripe(key)
	if s.dirty.Load() {
		s.dmu.RLock()
		if v, ok := s.ovl[key]; ok {
			s.dmu.RUnlock()
			return v, true
		}
		if _, dead := s.tomb[key]; dead {
			s.dmu.RUnlock()
			return nil, false
		}
		s.dmu.RUnlock()
	}
	s.mu.RLock()
	v, ok := s.base[key]
	s.mu.RUnlock()
	return v, ok
}

// Delete removes key, reporting whether it was (logically) present.
func (m *KVMap) Delete(key uint64) bool {
	s := m.stripe(key)
	if s.baseWriteOrDirty() {
		old, inOvl := s.ovl[key]
		_, wasDead := s.tomb[key]
		if inOvl {
			s.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
			delete(s.ovl, key)
		}
		s.tomb[key] = struct{}{}
		s.dmu.Unlock()
		if inOvl {
			return true
		}
		if wasDead {
			// Already logically deleted; the base copy is a stale snapshot.
			return false
		}
		// Known benign race: a MergeDirty landing between the dmu release
		// above and this base probe consumes the tombstone and removes the
		// key, so a logically-present key can be reported absent. Closing
		// it would need dmu held across the base read, inverting the
		// mu-before-dmu lock order; the return value is advisory only.
		s.mu.RLock()
		_, inBase := s.base[key]
		s.mu.RUnlock()
		return inBase
	}
	old, ok := s.base[key]
	if ok {
		s.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
		delete(s.base, key)
		s.delta.record(key)
	}
	s.mu.Unlock()
	return ok
}

// NumEntries reports the logical number of live keys.
func (m *KVMap) NumEntries() int {
	n := 0
	for _, s := range m.stripes {
		s.mu.RLock()
		s.dmu.RLock()
		n += len(s.base)
		for k := range s.ovl {
			if _, inBase := s.base[k]; !inBase {
				n++
			}
		}
		for k := range s.tomb {
			if _, inBase := s.base[k]; inBase {
				n--
			}
		}
		s.dmu.RUnlock()
		s.mu.RUnlock()
	}
	return n
}

// SizeBytes reports the approximate memory footprint.
func (m *KVMap) SizeBytes() int64 {
	var n int64
	for _, s := range m.stripes {
		n += s.size.Load()
	}
	return n
}

// BeginDirty enters dirty mode (see Store). Every stripe's base lock is
// held while the flags flip, so the snapshot cut is atomic across stripes.
func (m *KVMap) BeginDirty() error {
	m.lifecycle.Lock()
	defer m.lifecycle.Unlock()
	m.cutMu.Lock()
	defer m.cutMu.Unlock()
	for _, s := range m.stripes {
		s.mu.Lock()
	}
	defer func() {
		for i := len(m.stripes) - 1; i >= 0; i-- {
			m.stripes[i].mu.Unlock()
		}
	}()
	if m.dirty.Load() {
		return ErrDirtyActive
	}
	for _, s := range m.stripes {
		s.dirty.Store(true)
	}
	m.dirty.Store(true)
	return nil
}

// DirtySize reports the number of overlay entries plus tombstones.
func (m *KVMap) DirtySize() int {
	n := 0
	for _, s := range m.stripes {
		s.dmu.RLock()
		n += len(s.ovl) + len(s.tomb)
		s.dmu.RUnlock()
	}
	return n
}

// MergeDirty consolidates the overlay into the base (see Store), one
// stripe at a time: each stripe's merge holds only that stripe's locks, so
// the stop-the-writers window is per stripe.
func (m *KVMap) MergeDirty() (int, error) {
	m.lifecycle.Lock()
	defer m.lifecycle.Unlock()
	if !m.dirty.Load() {
		return 0, ErrDirtyInactive
	}
	n := 0
	for _, s := range m.stripes {
		unlock, err := s.lockMerge()
		if err != nil {
			return n, err
		}
		n += s.merge()
		unlock()
	}
	m.dirty.Store(false)
	return n, nil
}

// merge folds the stripe's overlay into its base. Both stripe locks held.
func (s *kvStripe) merge() int {
	n := len(s.ovl) + len(s.tomb)
	// Retain the merged overlay: the window's updates and tombstones belong
	// to the next delta epoch.
	s.delta.noteMerge(s.ovl, s.tomb)
	for k, v := range s.ovl {
		if old, ok := s.base[k]; ok {
			// Both copies were counted while dirty; drop the stale one.
			s.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
		}
		s.base[k] = v
	}
	for k := range s.tomb {
		if old, ok := s.base[k]; ok {
			s.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
			delete(s.base, k)
		}
	}
	s.ovl = make(map[uint64][]byte)
	s.tomb = make(map[uint64]struct{})
	return n
}

// Restore merges the given chunks into the base, decoding them in order.
func (m *KVMap) Restore(chunks []Chunk) error {
	for _, c := range chunks {
		if c.Type != TypeKVMap {
			return fmt.Errorf("%w: got %v, want %v", ErrWrongChunkType, c.Type, TypeKVMap)
		}
		if c.Delta {
			return ErrDeltaChunk
		}
		d := newDecoder(c.Data)
		count := d.uvarint()
		for i := uint64(0); i < count && d.err == nil; i++ {
			k := d.uvarint()
			v := d.bytes()
			if d.err == nil {
				m.Put(k, v)
			}
		}
		if d.err != nil {
			return d.err
		}
	}
	return nil
}

// Clear removes all entries. In dirty mode each stripe's base keys are
// tombstoned in its overlay so the in-flight checkpoint still sees the
// pre-clear state; otherwise the bases are dropped wholesale. cutMu keeps
// the store-wide clear on one side of any concurrent BeginDirty cut.
// Windowed applications use it to rotate state between windows.
func (m *KVMap) Clear() {
	m.cutMu.RLock()
	defer m.cutMu.RUnlock()
	for _, s := range m.stripes {
		s.clear()
	}
}

func (s *kvStripe) clear() {
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
				s.size.Add(-(int64(len(v)) + kvEntryOverhead + 8))
			}
			s.ovl = make(map[uint64][]byte)
			for k := range s.base {
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
		s.delta.noteBase(s.base) // wiped keys need tombstones in the next delta
		s.base = make(map[uint64][]byte)
		s.size.Store(0)
		s.mu.Unlock()
		return
	}
}

// ForEach visits live entries (base view only when dirty), stripe by
// stripe. Iteration stops when fn returns false.
func (m *KVMap) ForEach(fn func(key uint64, value []byte) bool) {
	for _, s := range m.stripes {
		s.mu.RLock()
		for k, v := range s.base {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

func splitKVChunk(c Chunk, n int) ([]Chunk, error) {
	d := newDecoder(c.Data)
	count := d.uvarint()
	bodies := make([]*encoder, n)
	counts := make([]uint64, n)
	for i := range bodies {
		bodies[i] = newCountedBody(len(c.Data)/n + 16)
	}
	for i := uint64(0); i < count; i++ {
		k := d.uvarint()
		v := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		p := PartitionKey(k, n)
		bodies[p].uvarint(k)
		bodies[p].bytes(v)
		counts[p]++
	}
	if d.err != nil {
		return nil, d.err
	}
	out := make([]Chunk, n)
	for i := range out {
		out[i] = Chunk{Type: TypeKVMap, Index: i, Of: n, Data: sealCount(bodies[i], counts[i])}
	}
	return out, nil
}

// Compile-time interface check: the dictionary is a full KV store with
// delta checkpoints.
var (
	_ KV         = (*KVMap)(nil)
	_ DeltaStore = (*KVMap)(nil)
)
