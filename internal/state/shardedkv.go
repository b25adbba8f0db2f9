package state

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxKVShards bounds the shard count; beyond this the per-shard maps are
// too small for striping to pay for its fixed cost.
const maxKVShards = 256

// ShardedKVMap is the lock-striped variant of KVMap: the key space is
// divided over N independent shards (N a power of two), each owning its own
// base map, dirty overlay, tombstone set and dirtyCtl. Writers to different
// shards never contend, and Restore/MergeDirty run one worker per shard,
// so the merge window drops with cores instead of scaling with total state
// size.
//
// Shard routing reuses the PartitionKey hash: because N is a power of two,
// shard(key) == PartitionKey(key, N), so the shard layout agrees with the
// restore-time chunk splits and the dataflow dispatchers (§3.2). Chunks are
// emitted in the TypeKVMap wire format, making sharded and single-lock
// checkpoints freely interchangeable at restore time.
//
// The §5 invariant — no base write in flight when the dirty flag flips —
// holds across the whole store, not just per shard: BeginDirty acquires
// every shard's base lock (in shard order, so it cannot deadlock against
// writers, which hold at most one) before flipping any flag, giving the
// dirty-mode snapshot a single linearisation point exactly like the
// single-lock store. A checkpoint stream read *outside* dirty mode locks
// shards one at a time and is therefore only per-shard consistent; per the
// Store contract, non-dirty checkpoints are for quiescent stores — use the
// BeginDirty/CheckpointStream/MergeDirty protocol for an atomic cut under
// load.
type ShardedKVMap struct {
	shards []*kvShard
	mask   uint64
	size   atomic.Int64 // approximate bytes across all shards
	dirty  atomic.Bool  // store-level view of the per-shard flags

	// lifecycle serialises the multi-shard structural operations —
	// BeginDirty, MergeDirty and the delta tracker cuts — against each
	// other. Writers never take it, so the dirty window stays
	// writer-transparent.
	lifecycle sync.Mutex
	// cutMu makes whole-store Clear atomic against BeginDirty's flip (the
	// snapshot cut): the flip holds it exclusively, Clear holds it shared,
	// so a clear lands entirely before or entirely after any cut and a
	// checkpoint can never capture a half-cleared store. Clear stays
	// concurrent with a checkpoint stream itself, as in the single-lock
	// store's dirty mode. Order: lifecycle, then cutMu, then shard locks.
	cutMu sync.RWMutex
}

// kvShard is one stripe: a miniature single-lock KVMap without the
// store-level bookkeeping.
type kvShard struct {
	dirtyCtl
	base  map[uint64][]byte
	ovl   map[uint64][]byte
	tomb  map[uint64]struct{}
	delta deltaTrack // changed-key tracker for incremental checkpoints
}

func newKVShard() *kvShard {
	return &kvShard{
		base: make(map[uint64][]byte),
		ovl:  make(map[uint64][]byte),
		tomb: make(map[uint64]struct{}),
	}
}

// NewShardedKVMap returns an empty sharded dictionary store with n shards,
// rounded up to a power of two and clamped to [1, 256]. n <= 0 selects a
// GOMAXPROCS-derived default.
func NewShardedKVMap(n int) *ShardedKVMap {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = ceilPow2(n)
	if n > maxKVShards {
		n = maxKVShards
	}
	m := &ShardedKVMap{shards: make([]*kvShard, n), mask: uint64(n - 1)}
	for i := range m.shards {
		m.shards[i] = newKVShard()
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

// shard routes a key to its stripe. Equivalent to PartitionKey(key,
// NumShards()) because the shard count is a power of two.
func (m *ShardedKVMap) shard(key uint64) *kvShard {
	return m.shards[mix64(key)&m.mask]
}

// NumShards reports the stripe count.
func (m *ShardedKVMap) NumShards() int { return len(m.shards) }

// Dirty reports whether the store is in dirty mode (see dirtyCtl.Dirty).
func (m *ShardedKVMap) Dirty() bool { return m.dirty.Load() }

// Type reports TypeKVMap: both dictionary backends share one chunk format,
// so a checkpoint records the dictionary type, not the backend.
func (m *ShardedKVMap) Type() StoreType { return TypeKVMap }

// Put stores value under key. The value is retained by reference; callers
// must not mutate it afterwards.
func (m *ShardedKVMap) Put(key uint64, value []byte) {
	s := m.shard(key)
	if s.baseWriteOrDirty() {
		if old, ok := s.ovl[key]; ok {
			m.size.Add(-int64(len(old)))
		} else {
			m.size.Add(kvEntryOverhead + 8)
		}
		s.ovl[key] = value
		delete(s.tomb, key)
		m.size.Add(int64(len(value)))
		s.dmu.Unlock()
		return
	}
	if old, ok := s.base[key]; ok {
		m.size.Add(-int64(len(old)))
	} else {
		m.size.Add(kvEntryOverhead + 8)
	}
	s.base[key] = value
	m.size.Add(int64(len(value)))
	s.delta.record(key)
	s.mu.Unlock()
}

// Get returns the value for key, consulting the shard's overlay first in
// dirty mode (§5).
func (m *ShardedKVMap) Get(key uint64) ([]byte, bool) {
	s := m.shard(key)
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
func (m *ShardedKVMap) Delete(key uint64) bool {
	s := m.shard(key)
	if s.baseWriteOrDirty() {
		_, inOvl := s.ovl[key]
		_, wasDead := s.tomb[key]
		if inOvl {
			m.size.Add(-(int64(len(s.ovl[key])) + kvEntryOverhead + 8))
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
		// Same benign race as KVMap.Delete: a merge between the dmu
		// release and this probe can make a present key report absent.
		s.mu.RLock()
		_, inBase := s.base[key]
		s.mu.RUnlock()
		return inBase
	}
	old, ok := s.base[key]
	if ok {
		m.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
		delete(s.base, key)
		s.delta.record(key)
	}
	s.mu.Unlock()
	return ok
}

// NumEntries reports the logical number of live keys across shards.
func (m *ShardedKVMap) NumEntries() int {
	n := 0
	for _, s := range m.shards {
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
func (m *ShardedKVMap) SizeBytes() int64 { return m.size.Load() }

// BeginDirty enters dirty mode (see Store). All shard base locks are held
// while the flags flip, so the snapshot cut is atomic across shards.
func (m *ShardedKVMap) BeginDirty() error {
	m.lifecycle.Lock()
	defer m.lifecycle.Unlock()
	m.cutMu.Lock()
	defer m.cutMu.Unlock()
	for _, s := range m.shards {
		s.mu.Lock()
	}
	if m.dirty.Load() {
		for i := len(m.shards) - 1; i >= 0; i-- {
			m.shards[i].mu.Unlock()
		}
		return ErrDirtyActive
	}
	for _, s := range m.shards {
		s.dirty.Store(true)
	}
	m.dirty.Store(true)
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
	return nil
}

// DirtySize reports the number of overlay entries plus tombstones.
func (m *ShardedKVMap) DirtySize() int {
	n := 0
	for _, s := range m.shards {
		s.dmu.RLock()
		n += len(s.ovl) + len(s.tomb)
		s.dmu.RUnlock()
	}
	return n
}

// MergeDirty consolidates every shard's overlay into its base, one worker
// per shard. Each shard's merge holds only that shard's locks, so the
// stop-the-writers window is per stripe and shrinks with the shard count.
func (m *ShardedKVMap) MergeDirty() (int, error) {
	m.lifecycle.Lock()
	defer m.lifecycle.Unlock()
	if !m.dirty.Load() {
		return 0, ErrDirtyInactive
	}
	var total atomic.Int64
	m.eachShard(func(s *kvShard) error {
		unlock, err := s.lockMerge()
		if err != nil {
			return err
		}
		defer unlock()
		total.Add(int64(len(s.ovl) + len(s.tomb)))
		// Retain the merged overlay for the next delta epoch.
		s.delta.noteMerge(s.ovl, s.tomb)
		for k, v := range s.ovl {
			if old, ok := s.base[k]; ok {
				// Both copies were counted while dirty; drop the stale one.
				m.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
			}
			s.base[k] = v
		}
		for k := range s.tomb {
			if old, ok := s.base[k]; ok {
				m.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
				delete(s.base, k)
			}
		}
		s.ovl = make(map[uint64][]byte)
		s.tomb = make(map[uint64]struct{})
		return nil
	})
	m.dirty.Store(false)
	return int(total.Load()), nil
}

// Restore merges the given chunks into the store, decoding chunks in
// parallel. It accepts chunks produced by either dictionary backend.
func (m *ShardedKVMap) Restore(chunks []Chunk) error {
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func(i int, c Chunk) {
			defer wg.Done()
			if c.Type != TypeKVMap {
				errs[i] = fmt.Errorf("%w: got %v, want %v", ErrWrongChunkType, c.Type, TypeKVMap)
				return
			}
			if c.Delta {
				errs[i] = ErrDeltaChunk
				return
			}
			d := newDecoder(c.Data)
			count := d.uvarint()
			for j := uint64(0); j < count && d.err == nil; j++ {
				k := d.uvarint()
				v := d.bytes()
				if d.err == nil {
					m.Put(k, v)
				}
			}
			errs[i] = d.err
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Clear removes all entries. In dirty mode each shard's base keys are
// tombstoned in its overlay so the in-flight checkpoint still sees the
// pre-clear state; otherwise the bases are dropped wholesale. cutMu keeps
// the store-wide clear on one side of any concurrent BeginDirty cut.
func (m *ShardedKVMap) Clear() {
	m.cutMu.RLock()
	defer m.cutMu.RUnlock()
	m.eachShard(func(s *kvShard) error {
		for {
			if s.dirty.Load() {
				// Lock order: mu before dmu. Both locks are held together
				// so the dirty flag cannot flip mid-clear (see KVMap.Clear
				// for the stale-tombstone hazard this prevents).
				s.mu.RLock()
				if !s.dirty.Load() {
					s.mu.RUnlock()
					continue // MergeDirty won the race; take the base path
				}
				s.dmu.Lock()
				for _, v := range s.ovl {
					m.size.Add(-(int64(len(v)) + kvEntryOverhead + 8))
				}
				s.ovl = make(map[uint64][]byte)
				for k := range s.base {
					s.tomb[k] = struct{}{}
				}
				s.dmu.Unlock()
				s.mu.RUnlock()
				return nil
			}
			s.mu.Lock()
			if s.dirty.Load() {
				s.mu.Unlock()
				continue // lost the race with BeginDirty; take the overlay path
			}
			for _, v := range s.base {
				m.size.Add(-(int64(len(v)) + kvEntryOverhead + 8))
			}
			s.delta.noteBase(s.base) // wiped keys need tombstones in the next delta
			s.base = make(map[uint64][]byte)
			s.mu.Unlock()
			return nil
		}
	})
}

// ForEach visits live entries (base view only when dirty), shard by shard.
// Iteration stops when fn returns false.
func (m *ShardedKVMap) ForEach(fn func(key uint64, value []byte) bool) {
	for _, s := range m.shards {
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

// eachShard runs fn once per shard on its own goroutine and returns after
// all complete. Errors are swallowed by callers that cannot fail; the merge
// path inspects per-shard state itself.
func (m *ShardedKVMap) eachShard(fn func(s *kvShard) error) {
	var wg sync.WaitGroup
	for _, s := range m.shards {
		wg.Add(1)
		go func(s *kvShard) {
			defer wg.Done()
			_ = fn(s)
		}(s)
	}
	wg.Wait()
}

// Compile-time interface checks: both dictionary backends are full KV
// stores.
var (
	_ KV = (*KVMap)(nil)
	_ KV = (*ShardedKVMap)(nil)
)
