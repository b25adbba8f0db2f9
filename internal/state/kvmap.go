package state

import (
	"fmt"
	"sync/atomic"
)

// kvEntryOverhead approximates the per-entry bookkeeping cost (map bucket
// share, slice header) used for SizeBytes accounting.
const kvEntryOverhead = 48

// KVMap is a dictionary SE: a hash map from uint64 keys to byte values with
// dirty-state support and streamed checkpoints. It backs the
// key/value store application used throughout the paper's evaluation.
type KVMap struct {
	dirtyCtl
	base  map[uint64][]byte
	ovl   map[uint64][]byte   // dirty overlay; nil values are not allowed
	tomb  map[uint64]struct{} // keys deleted while dirty
	size  atomic.Int64        // approximate bytes; atomic because both lock domains update it
	delta deltaTrack          // changed-key tracker for incremental checkpoints
}

// NewKVMap returns an empty dictionary store.
func NewKVMap() *KVMap {
	return &KVMap{
		base: make(map[uint64][]byte),
		ovl:  make(map[uint64][]byte),
		tomb: make(map[uint64]struct{}),
	}
}

// Type reports TypeKVMap.
func (m *KVMap) Type() StoreType { return TypeKVMap }

// Put stores value under key. The value is retained by reference; callers
// must not mutate it afterwards.
func (m *KVMap) Put(key uint64, value []byte) {
	if m.baseWriteOrDirty() {
		if old, ok := m.ovl[key]; ok {
			m.size.Add(-int64(len(old)))
		} else {
			m.size.Add(kvEntryOverhead + 8)
		}
		m.ovl[key] = value
		delete(m.tomb, key)
		m.size.Add(int64(len(value)))
		m.dmu.Unlock()
		return
	}
	if old, ok := m.base[key]; ok {
		m.size.Add(-int64(len(old)))
	} else {
		m.size.Add(kvEntryOverhead + 8)
	}
	m.base[key] = value
	m.size.Add(int64(len(value)))
	m.delta.record(key)
	m.mu.Unlock()
}

// Get returns the value for key. In dirty mode the overlay is consulted
// first, then the base (§5: "reads are first served by the dirty state and,
// only on a miss, by the dictionary").
func (m *KVMap) Get(key uint64) ([]byte, bool) {
	if m.dirty.Load() {
		m.dmu.RLock()
		if v, ok := m.ovl[key]; ok {
			m.dmu.RUnlock()
			return v, true
		}
		if _, dead := m.tomb[key]; dead {
			m.dmu.RUnlock()
			return nil, false
		}
		m.dmu.RUnlock()
	}
	m.mu.RLock()
	v, ok := m.base[key]
	m.mu.RUnlock()
	return v, ok
}

// Delete removes key, reporting whether it was (logically) present.
func (m *KVMap) Delete(key uint64) bool {
	if m.baseWriteOrDirty() {
		_, inOvl := m.ovl[key]
		_, wasDead := m.tomb[key]
		if inOvl {
			m.size.Add(-(int64(len(m.ovl[key])) + kvEntryOverhead + 8))
			delete(m.ovl, key)
		}
		m.tomb[key] = struct{}{}
		m.dmu.Unlock()
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
		m.mu.RLock()
		_, inBase := m.base[key]
		m.mu.RUnlock()
		return inBase
	}
	old, ok := m.base[key]
	if ok {
		m.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
		delete(m.base, key)
		m.delta.record(key)
	}
	m.mu.Unlock()
	return ok
}

// NumEntries reports the logical number of live keys.
func (m *KVMap) NumEntries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.dmu.RLock()
	defer m.dmu.RUnlock()
	n := len(m.base)
	for k := range m.ovl {
		if _, inBase := m.base[k]; !inBase {
			n++
		}
	}
	for k := range m.tomb {
		if _, inBase := m.base[k]; inBase {
			n--
		}
	}
	return n
}

// SizeBytes reports the approximate memory footprint.
func (m *KVMap) SizeBytes() int64 { return m.size.Load() }

// BeginDirty enters dirty mode (see Store).
func (m *KVMap) BeginDirty() error { return m.beginDirty() }

// DirtySize reports the number of overlay entries plus tombstones.
func (m *KVMap) DirtySize() int {
	m.dmu.RLock()
	defer m.dmu.RUnlock()
	return len(m.ovl) + len(m.tomb)
}

// MergeDirty consolidates the overlay into the base (see Store).
func (m *KVMap) MergeDirty() (int, error) {
	unlock, err := m.lockMerge()
	if err != nil {
		return 0, err
	}
	defer unlock()
	n := len(m.ovl) + len(m.tomb)
	// Retain the merged overlay: the window's updates and tombstones belong
	// to the next delta epoch.
	m.delta.noteMerge(m.ovl, m.tomb)
	for k, v := range m.ovl {
		if old, ok := m.base[k]; ok {
			// Both copies were counted while dirty; drop the stale one.
			m.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
		}
		m.base[k] = v
	}
	for k := range m.tomb {
		if old, ok := m.base[k]; ok {
			m.size.Add(-(int64(len(old)) + kvEntryOverhead + 8))
			delete(m.base, k)
		}
	}
	m.ovl = make(map[uint64][]byte)
	m.tomb = make(map[uint64]struct{})
	return n, nil
}

// Restore merges the given chunks into the base.
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
		for i := uint64(0); i < count; i++ {
			k := d.uvarint()
			v := d.bytes()
			if d.err != nil {
				return d.err
			}
			m.Put(k, v)
		}
		if d.err != nil {
			return d.err
		}
	}
	return nil
}

// Clear removes all entries. In dirty mode the base keys are tombstoned in
// the overlay so the in-flight checkpoint still sees the pre-clear state;
// otherwise the base is dropped wholesale. Windowed applications use it to
// rotate state between windows.
func (m *KVMap) Clear() {
	for {
		if m.dirty.Load() {
			// Lock order: mu before dmu. Both locks are held together so
			// the dirty flag cannot flip mid-clear (BeginDirty needs mu
			// exclusively, MergeDirty needs both): a flip after the keys
			// were collected would plant stale tombstones that delete
			// live data at the next checkpoint.
			m.mu.RLock()
			if !m.dirty.Load() {
				m.mu.RUnlock()
				continue // MergeDirty won the race; take the base path
			}
			m.dmu.Lock()
			for _, v := range m.ovl {
				m.size.Add(-(int64(len(v)) + kvEntryOverhead + 8))
			}
			m.ovl = make(map[uint64][]byte)
			for k := range m.base {
				m.tomb[k] = struct{}{}
			}
			m.dmu.Unlock()
			m.mu.RUnlock()
			return
		}
		m.mu.Lock()
		if m.dirty.Load() {
			m.mu.Unlock()
			continue // lost the race with BeginDirty; take the overlay path
		}
		m.delta.noteBase(m.base) // wiped keys need tombstones in the next delta
		m.base = make(map[uint64][]byte)
		m.size.Store(0)
		m.mu.Unlock()
		return
	}
}

// ForEach visits live entries (base view only when dirty). Iteration stops
// when fn returns false.
func (m *KVMap) ForEach(fn func(key uint64, value []byte) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, v := range m.base {
		if !fn(k, v) {
			return
		}
	}
}

func splitKVChunk(c Chunk, n int) ([]Chunk, error) {
	d := newDecoder(c.Data)
	count := d.uvarint()
	bodies := make([]*encoder, n)
	counts := make([]uint64, n)
	for i := range bodies {
		bodies[i] = newEncoder(len(c.Data)/n + 16)
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
		head := newEncoder(len(bodies[i].buf) + 10)
		head.uvarint(counts[i])
		head.buf = append(head.buf, bodies[i].buf...)
		out[i] = Chunk{Type: TypeKVMap, Index: i, Of: n, Data: head.buf}
	}
	return out, nil
}
