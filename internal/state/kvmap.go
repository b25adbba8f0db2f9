package state

import (
	"encoding/binary"
	"math/bits"
	"runtime"
)

// kvEntryOverhead approximates the per-entry bookkeeping cost (map bucket
// share, slice header) used for SizeBytes accounting.
const kvEntryOverhead = 48

// KVMap is a dictionary SE: a hash map from uint64 keys to byte values with
// dirty-state support and streamed and delta checkpoints, the store core
// (table) over byte values. It backs the key/value store application used
// throughout the paper's evaluation. NewKVMap builds one lock stripe — a
// single-lock store, which is what every deployment runs; NewShardedKVMap
// builds N, so writers to different stripes never contend.
type KVMap struct {
	table[[]byte, hashEntries[[]byte]]
}

// kvCodec stores a dictionary value as its own bytes.
type kvCodec struct{}

func (kvCodec) size(v []byte) int64 { return int64(len(v)) }
func (kvCodec) encode(dst, v []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(v))), v...)
}
func (kvCodec) clone(v []byte) []byte { return v } // values are never edited in place
func (kvCodec) blank([]byte) bool     { return false }
func (kvCodec) decode(_ uint64, b []byte) ([]byte, bool) {
	v := make([]byte, len(b))
	copy(v, b)
	return v, true
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
	// Clamp first, so the shift below stays in range.
	return newKVMap(1 << bits.Len(uint(min(n, maxKVStripes)-1)))
}

func newKVMap(n int) *KVMap {
	m := &KVMap{}
	m.init(TypeKVMap, kvCodec{}, kvEntryOverhead+8, n)
	return m
}

// Stripes reports the lock stripe count.
func (m *KVMap) Stripes() int { return len(m.stripes) }

// Put stores value under key. The value is retained by reference; callers
// must not mutate it afterwards. A value is replaced whole, never edited,
// so the dirty path takes the overlay lock alone (baseWriteOrDirty); this
// is the kv_call hot path, written for the dictionary's own types.
func (m *KVMap) Put(key uint64, value []byte) {
	s := m.stripe(key)
	grow := m.overhead + int64(len(value))
	if s.baseWriteOrDirty() {
		if old, ok := s.ovl[key]; ok {
			grow -= m.overhead + int64(len(old))
		}
		s.ovl[key] = value
		delete(s.tomb, key)
		s.size.Add(grow)
		s.dmu.Unlock()
		return
	}
	if old, ok := s.base[key]; ok {
		grow -= m.overhead + int64(len(old))
	}
	s.base[key] = value
	s.size.Add(grow)
	s.delta.record(key)
	s.mu.Unlock()
}

// Get returns the value for key. In dirty mode the overlay is consulted
// first, then the base (§5: "reads are first served by the dirty state and,
// only on a miss, by the dictionary"). Like Put it is written for the
// dictionary's own types: the kv_call hot path.
func (m *KVMap) Get(key uint64) ([]byte, bool) {
	s := m.stripe(key)
	if s.dirty.Load() {
		s.dmu.RLock()
		v, ok := s.ovl[key]
		_, dead := s.tomb[key]
		s.dmu.RUnlock()
		if ok || dead {
			return v, ok
		}
	}
	s.mu.RLock()
	v, ok := s.base[key]
	s.mu.RUnlock()
	return v, ok
}

// Delete removes key, reporting whether it was (logically) present.
func (m *KVMap) Delete(key uint64) bool { return m.del(key) }

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

// Compile-time interface check: the dictionary is a full KV store with
// delta checkpoints.
var (
	_ KV         = (*KVMap)(nil)
	_ DeltaStore = (*KVMap)(nil)
)
