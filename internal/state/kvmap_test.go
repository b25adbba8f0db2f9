package state

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestKVMapBasic(t *testing.T) {
	m := NewKVMap()
	m.Put(1, []byte("a"))
	m.Put(2, []byte("b"))
	if v, ok := m.Get(1); !ok || string(v) != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("Get(3) should miss")
	}
	if n := m.NumEntries(); n != 2 {
		t.Fatalf("NumEntries = %d, want 2", n)
	}
	if !m.Delete(1) {
		t.Fatal("Delete(1) should report present")
	}
	if m.Delete(1) {
		t.Fatal("Delete(1) twice should report absent")
	}
	if n := m.NumEntries(); n != 1 {
		t.Fatalf("NumEntries after delete = %d, want 1", n)
	}
	if m.Type() != TypeKVMap {
		t.Fatal("wrong type")
	}
}

func TestKVMapOverwriteAccounting(t *testing.T) {
	m := NewKVMap()
	m.Put(1, make([]byte, 100))
	s1 := m.SizeBytes()
	m.Put(1, make([]byte, 10))
	s2 := m.SizeBytes()
	if s2 >= s1 {
		t.Errorf("size should shrink after overwrite with smaller value: %d -> %d", s1, s2)
	}
	m.Delete(1)
	if m.SizeBytes() != 0 {
		t.Errorf("size after delete = %d, want 0", m.SizeBytes())
	}
}

func TestKVMapDirtyProtocol(t *testing.T) {
	m := NewKVMap()
	m.Put(1, []byte("base1"))
	m.Put(2, []byte("base2"))

	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginDirty(); err != ErrDirtyActive {
		t.Fatalf("double BeginDirty err = %v", err)
	}

	// Updates while dirty go to the overlay; reads see them.
	m.Put(1, []byte("dirty1"))
	m.Put(3, []byte("dirty3"))
	m.Delete(2)
	if v, _ := m.Get(1); string(v) != "dirty1" {
		t.Fatalf("Get(1) while dirty = %q", v)
	}
	if _, ok := m.Get(2); ok {
		t.Fatal("Get(2) should see tombstone")
	}
	if v, ok := m.Get(3); !ok || string(v) != "dirty3" {
		t.Fatalf("Get(3) while dirty = %q, %v", v, ok)
	}
	if m.DirtySize() != 3 {
		t.Fatalf("DirtySize = %d, want 3", m.DirtySize())
	}
	if n := m.NumEntries(); n != 2 {
		t.Fatalf("NumEntries while dirty = %d, want 2 (keys 1,3)", n)
	}

	// The checkpoint must reflect the pre-dirty base only.
	chunks := drainStream(t, m, 64)
	restored := NewKVMap()
	if err := restored.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if v, _ := restored.Get(1); string(v) != "base1" {
		t.Fatalf("checkpoint leaked dirty write: Get(1) = %q", v)
	}
	if v, ok := restored.Get(2); !ok || string(v) != "base2" {
		t.Fatalf("checkpoint lost base entry: %q %v", v, ok)
	}
	if _, ok := restored.Get(3); ok {
		t.Fatal("checkpoint contains dirty-only key 3")
	}

	// Merge consolidates and leaves dirty mode.
	n, err := m.MergeDirty()
	if err != nil || n != 3 {
		t.Fatalf("MergeDirty = %d, %v", n, err)
	}
	if _, err := m.MergeDirty(); err != ErrDirtyInactive {
		t.Fatalf("second MergeDirty err = %v", err)
	}
	if v, _ := m.Get(1); string(v) != "dirty1" {
		t.Fatal("merge lost overlay write")
	}
	if _, ok := m.Get(2); ok {
		t.Fatal("merge did not apply tombstone")
	}
	if m.DirtySize() != 0 {
		t.Fatal("overlay not cleared")
	}
}

func TestKVMapCheckpointRestoreRoundTrip(t *testing.T) {
	m := NewKVMap()
	for i := uint64(0); i < 500; i++ {
		m.Put(i, []byte(fmt.Sprintf("value-%d", i)))
	}
	for _, maxBytes := range []int{64, 1024, 1 << 20} {
		chunks := drainStream(t, m, maxBytes)
		if maxBytes < 1<<20 && len(chunks) < 2 || maxBytes == 1<<20 && len(chunks) != 1 {
			t.Fatalf("maxBytes=%d: %d chunk(s)", maxBytes, len(chunks))
		}
		r := NewKVMap()
		if err := r.Restore(chunks); err != nil {
			t.Fatal(err)
		}
		if r.NumEntries() != 500 {
			t.Fatalf("restored %d entries, want 500", r.NumEntries())
		}
		for i := uint64(0); i < 500; i++ {
			want := fmt.Sprintf("value-%d", i)
			if v, ok := r.Get(i); !ok || string(v) != want {
				t.Fatalf("maxBytes=%d key %d: got %q, want %q", maxBytes, i, v, want)
			}
		}
	}
}

// reshapeByChunks moves src onto n fresh stores the way the runtime
// reshapes a partitioned SE: src's base streams as bounded chunks, each
// chunk splits n ways, and piece j restores into store j.
func reshapeByChunks(t *testing.T, src Store, n int, mk func() Store) []Store {
	t.Helper()
	it, err := StreamChunks(src, 256)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]Store, n)
	for j := range parts {
		parts[j] = mk()
	}
	for {
		c, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return parts
		}
		pieces, err := SplitChunk(c, n)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range pieces {
			if err := parts[j].Restore([]Chunk{p}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestKVMapSplit: splitting a map's chunks n ways and restoring piece j
// into store j puts every key on exactly the partition PartitionKey names,
// and leaves the source untouched.
func TestKVMapSplit(t *testing.T) {
	m := NewKVMap()
	for i := uint64(0); i < 200; i++ {
		m.Put(i, []byte{byte(i)})
	}
	parts := reshapeByChunks(t, m, 3, func() Store { return NewKVMap() })
	if m.NumEntries() != 200 {
		t.Fatalf("source holds %d entries after the split, want 200", m.NumEntries())
	}
	total := 0
	for pi, p := range parts {
		kv := p.(*KVMap)
		total += kv.NumEntries()
		kv.ForEach(func(k uint64, _ []byte) bool {
			if PartitionKey(k, 3) != pi {
				t.Fatalf("key %d in wrong partition %d", k, pi)
			}
			return true
		})
	}
	if total != 200 {
		t.Fatalf("partitions hold %d entries, want 200", total)
	}
}

func TestKVMapSplitChunkEquivalence(t *testing.T) {
	m := NewKVMap()
	for i := uint64(0); i < 300; i++ {
		m.Put(i, []byte(fmt.Sprintf("v%d", i)))
	}
	one := drainStream(t, m, 1<<20)
	if len(one) != 1 {
		t.Fatalf("streamed %d chunks, want 1", len(one))
	}
	split, err := SplitChunk(one[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != 4 {
		t.Fatalf("split into %d, want 4", len(split))
	}
	r := NewKVMap()
	if err := r.Restore(split); err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != 300 {
		t.Fatalf("restored %d, want 300", r.NumEntries())
	}
	for i := uint64(0); i < 300; i++ {
		want := fmt.Sprintf("v%d", i)
		if v, ok := r.Get(i); !ok || !bytes.Equal(v, []byte(want)) {
			t.Fatalf("key %d: %q", i, v)
		}
	}
}

func TestKVMapConcurrentDuringDirty(t *testing.T) {
	m := NewKVMap()
	for i := uint64(0); i < 1000; i++ {
		m.Put(i, []byte{1})
	}
	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Writers update the overlay while a checkpoint serialises the base.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				m.Put(i, []byte{byte(g)})
				m.Get(i)
			}
		}(g)
	}
	chunks := drainStream(t, m, 1024)
	wg.Wait()
	if _, err := m.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	r := NewKVMap()
	if err := r.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != 1000 {
		t.Fatalf("checkpoint has %d entries, want 1000", r.NumEntries())
	}
	r.ForEach(func(k uint64, v []byte) bool {
		if !bytes.Equal(v, []byte{1}) {
			t.Fatalf("checkpoint saw dirty write for key %d: %v", k, v)
		}
		return true
	})
}

func TestKVMapErrors(t *testing.T) {
	m := NewKVMap()
	if _, err := m.CheckpointStream(0); err != ErrBadSplit {
		t.Errorf("CheckpointStream(0) err = %v", err)
	}
	bad := Chunk{Type: TypeMatrix}
	if err := m.Restore([]Chunk{bad}); err == nil {
		t.Error("Restore with wrong chunk type should fail")
	}
	corrupt := Chunk{Type: TypeKVMap, Data: []byte{0xff}}
	if err := m.Restore([]Chunk{corrupt}); err == nil {
		t.Error("Restore with corrupt chunk should fail")
	}
}
