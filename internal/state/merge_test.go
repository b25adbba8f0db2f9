package state

import (
	"errors"
	"fmt"
	"testing"
)

// fillKV populates a dictionary store with n keys whose values encode the
// key, so any store can be checked for completeness after a split/merge
// round trip.
func fillKV(t *testing.T, kv KV, n int) {
	t.Helper()
	for k := uint64(0); k < uint64(n); k++ {
		kv.Put(k, []byte(fmt.Sprintf("v%d", k)))
	}
}

func checkKV(t *testing.T, kv KV, n int) {
	t.Helper()
	if got := kv.NumEntries(); got != n {
		t.Fatalf("NumEntries = %d, want %d", got, n)
	}
	for k := uint64(0); k < uint64(n); k++ {
		v, ok := kv.Get(k)
		if !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d = %q (found=%v)", k, v, ok)
		}
	}
}

// TestMergeInvertsSplit: splitting a dictionary n ways and merging the
// pieces back rebuilds the original contents, on both backends and across
// backends.
func TestMergeInvertsSplit(t *testing.T) {
	const n = 500
	build := map[string]func() KV{
		"kvmap":   func() KV { return NewKVMap() },
		"sharded": func() KV { return NewShardedKVMap(4) },
	}
	for srcName, newSrc := range build {
		for dstName, newDst := range build {
			t.Run(srcName+"_into_"+dstName, func(t *testing.T) {
				src := newSrc()
				fillKV(t, src, n)
				parts, err := src.(Partitionable).Split(3)
				if err != nil {
					t.Fatal(err)
				}
				dst := newDst()
				for _, p := range parts {
					if err := dst.(Merger).Merge(p); err != nil {
						t.Fatal(err)
					}
				}
				checkKV(t, dst, n)
				for _, p := range parts {
					if p.NumEntries() != 0 {
						t.Fatal("merge must empty the source")
					}
				}
			})
		}
	}
}

// TestMergePreservesDeltaWindow: after a merge, the absorber's next delta
// cut covers every absorbed key — including keys deleted on the source
// since its last cut, which must become tombstones.
func TestMergePreservesDeltaWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  KV
	}{
		{"kvmap", NewKVMap()},
		{"sharded", NewShardedKVMap(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := tc.dst.(DeltaStore)
			dst.EnableDeltaTracking()
			tc.dst.Put(1, []byte("a"))
			// Cut and commit so the tracker is empty: only the merge's keys
			// may appear in the next delta.
			dst.CutDelta()
			dst.CommitDelta()

			src := NewKVMap()
			src.EnableDeltaTracking()
			src.Put(2, []byte("b"))
			src.Put(3, []byte("c"))
			src.Delete(3) // deleted-since-cut: needs a tombstone downstream

			if err := tc.dst.(Merger).Merge(src); err != nil {
				t.Fatal(err)
			}
			chunks, err := dst.DeltaCheckpoint(1)
			if err != nil {
				t.Fatal(err)
			}
			dst.CommitDelta()
			replay := NewKVMap()
			replay.Put(1, []byte("stale"))
			replay.Put(2, []byte("stale"))
			replay.Put(3, []byte("stale"))
			if err := replay.ApplyDelta(chunks); err != nil {
				t.Fatal(err)
			}
			if v, ok := replay.Get(2); !ok || string(v) != "b" {
				t.Fatalf("absorbed key 2 not in delta: %q %v", v, ok)
			}
			if _, ok := replay.Get(3); ok {
				t.Fatal("deleted source key 3 not tombstoned in the absorber's delta")
			}
			if v, ok := replay.Get(1); !ok || string(v) != "stale" {
				t.Fatalf("pre-merge key 1 must not reappear in the delta: %q %v", v, ok)
			}
		})
	}
}

func TestMergeRefusesDirtySource(t *testing.T) {
	src := NewKVMap()
	src.Put(1, []byte("a"))
	if err := src.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	dst := NewKVMap()
	if err := dst.Merge(src); !errors.Is(err, ErrDirtyActive) {
		t.Fatalf("merge of dirty source = %v, want ErrDirtyActive", err)
	}
}

func TestMergeIntoDirtyDestination(t *testing.T) {
	// The destination may be mid-checkpoint: absorbed entries land in the
	// overlay like any other write and consolidate on MergeDirty.
	dst := NewKVMap()
	dst.Put(1, []byte("a"))
	if err := dst.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	src := NewKVMap()
	src.Put(2, []byte("b"))
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	if v, ok := dst.Get(1); !ok || string(v) != "a" {
		t.Fatalf("key 1 = %q (found=%v)", v, ok)
	}
	if v, ok := dst.Get(2); !ok || string(v) != "b" {
		t.Fatalf("key 2 = %q (found=%v)", v, ok)
	}
}

func TestMergeRejectsSelfAndWrongType(t *testing.T) {
	m := NewKVMap()
	if err := m.Merge(m); !errors.Is(err, ErrBadMerge) {
		t.Fatalf("self-merge = %v, want ErrBadMerge", err)
	}
	if err := m.Merge(NewVector(4)); !errors.Is(err, ErrBadMerge) {
		t.Fatalf("cross-type merge = %v, want ErrBadMerge", err)
	}
	v := NewVector(4)
	if err := v.Merge(NewKVMap()); !errors.Is(err, ErrBadMerge) {
		t.Fatalf("vector absorbing kvmap = %v, want ErrBadMerge", err)
	}
}

// TestVectorMergeIntoDirtyDestination: a dirty receiver must absorb via
// its overlay, not destroy the (already-drained) source by failing a
// resize — the regression was Merge emptying src and then erroring.
func TestVectorMergeIntoDirtyDestination(t *testing.T) {
	dst := NewVector(2)
	dst.Set(0, 1)
	if err := dst.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	src := NewVector(8)
	src.Set(5, 7)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if got := dst.Get(5); got != 7 {
		t.Fatalf("merged element 5 = %v before consolidation", got)
	}
	if _, err := dst.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 8 {
		t.Fatalf("len after consolidation = %d, want 8", dst.Len())
	}
	if got := dst.Get(5); got != 7 {
		t.Fatalf("merged element 5 = %v, want 7", got)
	}
	if got := dst.Get(0); got != 1 {
		t.Fatalf("pre-merge element 0 = %v, want 1", got)
	}
}

func TestVectorMergeInvertsSplit(t *testing.T) {
	v := NewVector(64)
	for i := 0; i < 64; i++ {
		v.Set(i, float64(i+1))
	}
	parts, err := v.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewVector(0)
	for _, p := range parts {
		if err := dst.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Len() != 64 {
		t.Fatalf("len = %d", dst.Len())
	}
	for i := 0; i < 64; i++ {
		if dst.Get(i) != float64(i+1) {
			t.Fatalf("elem %d = %v", i, dst.Get(i))
		}
	}
}

func TestMatrixMergeInvertsSplit(t *testing.T) {
	m := NewMatrix()
	for r := int64(0); r < 20; r++ {
		for c := int64(0); c < 3; c++ {
			m.Set(r, c, float64(r*10+c))
		}
	}
	parts, err := m.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewMatrix()
	for _, p := range parts {
		if err := dst.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if dst.NumEntries() != 60 {
		t.Fatalf("entries = %d", dst.NumEntries())
	}
	for r := int64(0); r < 20; r++ {
		for c := int64(0); c < 3; c++ {
			if dst.Get(r, c) != float64(r*10+c) {
				t.Fatalf("cell (%d,%d) = %v", r, c, dst.Get(r, c))
			}
		}
	}
}
