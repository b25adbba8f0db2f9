package state

import (
	"errors"
	"fmt"
)

// Merge is the inverse of Split: a store absorbs another store's contents so
// the runtime can retire an SE instance and fold its partition (or partial
// replica) into a survivor. Composing the two gives lossless scale-in for
// hash-partitioned state: splitting every old partition n ways re-hashes
// each key to PartitionKey(key, n) no matter which physical store held it,
// and merging the pieces per target index rebuilds the shrunk layout.
//
// Delta-tracking overlays are preserved across the fold: every absorbed key
// is recorded in the absorber's changed-key tracker (the Put path records
// live keys; the source's drained tracker covers keys deleted since its last
// cut, which become tombstones at the absorber's next delta cut). The
// runtime still forces the absorber's next checkpoint to be a fresh base —
// a chain anchored to the pre-merge store must not continue across a merge —
// but the tracker fold means even a racing in-flight delta epoch cannot
// lose an absorbed key.
//
// Merge requires the source to be quiescent (not in dirty mode): it steals
// the source's base wholesale and leaves it empty. The destination may be
// dirty — absorbed entries then land in the overlay like any other write.

// ErrBadMerge is returned when a store cannot absorb the given source type.
var ErrBadMerge = fmt.Errorf("state: stores cannot merge")

// DirtyReporter is implemented by every provided store: it exposes whether
// a checkpoint snapshot currently holds the store in dirty mode. Scale-in
// uses it to wait out an in-flight checkpoint *before* the first
// destructive Split, so the rebuild either starts with every source
// splittable or starts not at all.
type DirtyReporter interface {
	Dirty() bool
}

// Merger is implemented by stores that can absorb another store's contents,
// emptying the source — the inverse of Split.
type Merger interface {
	Store
	// Merge folds src's entries into the receiver and empties src. Entries
	// present in both stores resolve in src's favour (scale-in merges
	// disjoint partitions, so collisions only arise from misuse). It fails
	// with ErrDirtyActive if src is mid-checkpoint and ErrBadMerge if the
	// source type is incompatible.
	Merge(src Store) error
}

// drainKV steals a dictionary backend's base entries and drained delta
// window, leaving the source empty. It refuses while the source is dirty:
// stealing the base mid-checkpoint would tear the frozen snapshot.
func drainKVMap(s *KVMap) (map[uint64][]byte, map[uint64]struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty.Load() {
		return nil, nil, ErrDirtyActive
	}
	base := s.base
	window := s.delta.drain()
	s.base = make(map[uint64][]byte)
	s.size.Store(0)
	return base, window, nil
}

// drainSharded steals every shard's base and delta window under the ordered
// whole-store lock sweep (the same discipline Split uses).
func drainSharded(s *ShardedKVMap) ([]map[uint64][]byte, map[uint64]struct{}, error) {
	s.lifecycle.Lock()
	defer s.lifecycle.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}()
	if s.dirty.Load() {
		return nil, nil, ErrDirtyActive
	}
	bases := make([]map[uint64][]byte, len(s.shards))
	window := make(map[uint64]struct{})
	for i, sh := range s.shards {
		bases[i] = sh.base
		for k := range sh.delta.drain() {
			window[k] = struct{}{}
		}
		sh.base = make(map[uint64][]byte)
	}
	s.size.Store(0)
	return bases, window, nil
}

// drainDict dispatches on the dictionary backend; both backends drain into
// the same shape so either can absorb either.
func drainDict(src Store) ([]map[uint64][]byte, map[uint64]struct{}, error) {
	switch s := src.(type) {
	case *KVMap:
		base, window, err := drainKVMap(s)
		if err != nil {
			return nil, nil, err
		}
		return []map[uint64][]byte{base}, window, nil
	case *ShardedKVMap:
		return drainSharded(s)
	default:
		return nil, nil, fmt.Errorf("%w: dictionary store cannot absorb %v", ErrBadMerge, src.Type())
	}
}

// Merge folds another dictionary store (either backend) into the map.
func (m *KVMap) Merge(src Store) error {
	if src == Store(m) {
		return fmt.Errorf("%w: cannot merge a store into itself", ErrBadMerge)
	}
	bases, window, err := drainDict(src)
	if err != nil {
		return err
	}
	for _, base := range bases {
		m.absorb(base)
	}
	// The drained window adds the keys deleted on the source since its last
	// cut, which become tombstones at the next delta cut.
	m.mu.Lock()
	m.delta.noteKeys(window)
	m.mu.Unlock()
	return nil
}

// absorb folds one drained base map into the receiver, taking the base
// lock once instead of once per key — scale-in runs Merge inside the
// ingress fence, so the absorb cost is merge pause time. A dirty receiver
// falls back to the per-key Put path, whose overlay writes keep the
// in-flight snapshot consistent.
func (m *KVMap) absorb(base map[uint64][]byte) {
	m.mu.Lock()
	if m.dirty.Load() {
		m.mu.Unlock()
		for k, v := range base {
			m.Put(k, v)
		}
		return
	}
	var grew int64
	for k, v := range base {
		if old, ok := m.base[k]; ok {
			grew -= int64(len(old))
		} else {
			grew += kvEntryOverhead + 8
		}
		m.base[k] = v
		grew += int64(len(v))
	}
	m.delta.noteBase(base)
	m.mu.Unlock()
	m.size.Add(grew)
}

// Merge folds another dictionary store (either backend) into the sharded
// map. The absorbed keys are recorded per destination shard, matching where
// the next delta cut will look for them.
func (m *ShardedKVMap) Merge(src Store) error {
	if src == Store(m) {
		return fmt.Errorf("%w: cannot merge a store into itself", ErrBadMerge)
	}
	bases, window, err := drainDict(src)
	if err != nil {
		return err
	}
	for _, base := range bases {
		m.absorb(base)
	}
	// Tombstoned keys fold into the shard that owns them.
	for k := range window {
		s := m.shard(k)
		s.mu.Lock()
		s.delta.record(k)
		s.mu.Unlock()
	}
	return nil
}

// absorb groups one drained base map by destination shard and folds each
// group under its shard's base lock once (one delta note per shard, one
// size update per shard) instead of per key. A dirty shard falls back to
// the overlay-aware Put path.
func (m *ShardedKVMap) absorb(base map[uint64][]byte) {
	groups := make([]map[uint64][]byte, len(m.shards))
	for k, v := range base {
		i := int(mix64(k) & m.mask)
		if groups[i] == nil {
			groups[i] = make(map[uint64][]byte)
		}
		groups[i][k] = v
	}
	for i, g := range groups {
		if g == nil {
			continue
		}
		s := m.shards[i]
		s.mu.Lock()
		if s.dirty.Load() {
			s.mu.Unlock()
			for k, v := range g {
				m.Put(k, v)
			}
			continue
		}
		var grew int64
		for k, v := range g {
			if old, ok := s.base[k]; ok {
				grew -= int64(len(old))
			} else {
				grew += kvEntryOverhead + 8
			}
			s.base[k] = v
			grew += int64(len(v))
		}
		s.delta.noteBase(g)
		s.mu.Unlock()
		m.size.Add(grew)
	}
}

// Merge folds another Vector into the receiver: non-zero source elements
// overwrite, and the receiver grows to the source's length. The source is
// zeroed.
func (v *Vector) Merge(src Store) error {
	s, ok := src.(*Vector)
	if !ok {
		return fmt.Errorf("%w: vector cannot absorb %v", ErrBadMerge, src.Type())
	}
	if s == v {
		return fmt.Errorf("%w: cannot merge a store into itself", ErrBadMerge)
	}
	s.mu.Lock()
	if s.dirty.Load() {
		s.mu.Unlock()
		return ErrDirtyActive
	}
	vals := s.vals
	s.vals = make([]float64, len(vals))
	s.mu.Unlock()
	// Grow the receiver up front for the common quiescent case. A dirty
	// receiver refuses to resize but loses nothing: its overlay absorbs any
	// index and MergeDirty grows the base to the overlay's maximum, so the
	// refusal is ignored and the writes below pick the right path per
	// element under the receiver's own locks.
	if err := v.Resize(len(vals)); err != nil && !errors.Is(err, ErrDirtyActive) {
		return err
	}
	startLen := v.Len()
	for i, x := range vals {
		if x == 0 {
			// Zeros carry no value, with one exception: when the receiver is
			// shorter than the source, the final index must be written to
			// pin the merged length — a dirty receiver only grows to its
			// overlay's maximum written index at MergeDirty. The slot is
			// left alone if some earlier merge already filled it.
			if i != len(vals)-1 || i < startLen {
				continue
			}
			if v.baseWriteOrDirty() {
				if _, exists := v.ovl[i]; !exists {
					v.ovl[i] = 0
				}
				v.dmu.Unlock()
			} else {
				if i >= len(v.vals) {
					grown := make([]float64, len(vals))
					copy(grown, v.vals)
					v.vals = grown
				}
				v.mu.Unlock()
			}
			continue
		}
		if v.baseWriteOrDirty() {
			v.ovl[i] = x
			v.dmu.Unlock()
			continue
		}
		// Not dirty (any more): the resize above may have been refused by a
		// dirty window that has since merged, so grow the base inline.
		if i >= len(v.vals) {
			grown := make([]float64, len(vals))
			copy(grown, v.vals)
			v.vals = grown
		}
		v.vals[i] = x
		v.mu.Unlock()
	}
	return nil
}

// Merge folds another sparse Matrix into the receiver cell by cell; source
// cells overwrite. The source is emptied.
func (m *Matrix) Merge(src Store) error {
	s, ok := src.(*Matrix)
	if !ok {
		return fmt.Errorf("%w: matrix cannot absorb %v", ErrBadMerge, src.Type())
	}
	if s == m {
		return fmt.Errorf("%w: cannot merge a store into itself", ErrBadMerge)
	}
	s.mu.Lock()
	if s.dirty.Load() {
		s.mu.Unlock()
		return ErrDirtyActive
	}
	base := s.base
	s.base = make(map[int64]map[int64]float64)
	s.size.Store(0)
	s.mu.Unlock()
	for r, row := range base {
		for c, val := range row {
			m.Set(r, c, val)
		}
	}
	return nil
}

// Merge folds another DenseMatrix of identical dimensions into the
// receiver: non-zero source cells overwrite. The source is zeroed.
func (m *DenseMatrix) Merge(src Store) error {
	s, ok := src.(*DenseMatrix)
	if !ok {
		return fmt.Errorf("%w: dense matrix cannot absorb %v", ErrBadMerge, src.Type())
	}
	if s == m {
		return fmt.Errorf("%w: cannot merge a store into itself", ErrBadMerge)
	}
	mr, mc := m.Dims()
	s.mu.Lock()
	if s.dirty.Load() {
		s.mu.Unlock()
		return ErrDirtyActive
	}
	rows, cols := s.rows, s.cols
	if rows != mr || cols != mc {
		s.mu.Unlock()
		return fmt.Errorf("%w: dense matrix dims %dx%d != %dx%d", ErrBadMerge, mr, mc, rows, cols)
	}
	vals := s.vals
	s.vals = make([]float64, len(vals))
	s.mu.Unlock()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if x := vals[r*cols+c]; x != 0 {
				m.Set(r, c, x)
			}
		}
	}
	return nil
}

// Compile-time checks: every partitionable store can also merge and report
// its dirty mode.
var (
	_ Merger = (*KVMap)(nil)
	_ Merger = (*ShardedKVMap)(nil)
	_ Merger = (*Vector)(nil)
	_ Merger = (*Matrix)(nil)
	_ Merger = (*DenseMatrix)(nil)

	_ DirtyReporter = (*KVMap)(nil)
	_ DirtyReporter = (*ShardedKVMap)(nil)
	_ DirtyReporter = (*Vector)(nil)
	_ DirtyReporter = (*Matrix)(nil)
	_ DirtyReporter = (*DenseMatrix)(nil)
)
