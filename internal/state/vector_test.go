package state

import (
	"errors"
	"math"
	"testing"
)

func TestVectorBasic(t *testing.T) {
	v := NewVector(4)
	if v.Len() != 4 || v.NumEntries() != 4 {
		t.Fatalf("Len = %d", v.Len())
	}
	v.Set(0, 1.5)
	v.Set(3, -2.0)
	if v.Get(0) != 1.5 || v.Get(3) != -2.0 {
		t.Fatal("set/get failed")
	}
	if v.Get(-1) != 0 || v.Get(10) != 0 {
		t.Fatal("out-of-range get should be 0")
	}
	if got := v.Add(0, 0.5); got != 2.0 {
		t.Fatalf("Add = %f", got)
	}
	if v.Type() != TypeVector {
		t.Fatal("wrong type")
	}
}

func TestVectorResize(t *testing.T) {
	v := NewVector(2)
	v.Set(1, 7)
	if err := v.Resize(5); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 5 || v.Get(1) != 7 {
		t.Fatal("resize lost data")
	}
	if err := v.Resize(3); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 5 {
		t.Fatal("resize should never shrink")
	}
	_ = v.BeginDirty()
	if err := v.Resize(10); err != ErrDirtyActive {
		t.Fatalf("Resize while dirty err = %v", err)
	}
}

func TestVectorDotAddScaled(t *testing.T) {
	v := NewVector(3)
	v.Set(0, 1)
	v.Set(1, 2)
	v.Set(2, 3)
	if d := v.Dot([]float64{1, 1, 1}); d != 6 {
		t.Fatalf("Dot = %f", d)
	}
	v.AddScaled([]float64{1, 1, 1}, 2)
	want := []float64{3, 4, 5}
	for i, w := range want {
		if v.Get(i) != w {
			t.Fatalf("AddScaled[%d] = %f, want %f", i, v.Get(i), w)
		}
	}
}

func TestVectorDirtyProtocol(t *testing.T) {
	v := NewVector(3)
	v.Set(0, 1)
	if err := v.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	v.Set(0, 10)
	v.Set(2, 30)
	v.AddScaled([]float64{1, 1, 1}, 1) // goes through overlay path
	if v.Get(0) != 11 || v.Get(1) != 1 || v.Get(2) != 31 {
		t.Fatalf("dirty reads = %f %f %f", v.Get(0), v.Get(1), v.Get(2))
	}
	chunks := drainStream(t, v, 8)
	r := NewVector(0)
	if err := r.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("restored len = %d", r.Len())
	}
	if r.Get(0) != 1 || r.Get(2) != 0 {
		t.Fatalf("checkpoint leaked dirty state: %f %f", r.Get(0), r.Get(2))
	}
	if v.DirtySize() == 0 {
		t.Fatal("expected overlay entries")
	}
	if _, err := v.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	if v.Get(0) != 11 || v.Get(2) != 31 {
		t.Fatal("merge lost overlay")
	}
	snap := v.Snapshot()
	if len(snap) != 3 || snap[0] != 11 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestVectorCheckpointRoundTrip(t *testing.T) {
	v := NewVector(100)
	for i := 0; i < 100; i += 3 {
		v.Set(i, float64(i)+0.25)
	}
	for _, maxBytes := range []int{64, 1024, 1 << 20} {
		chunks := drainStream(t, v, maxBytes)
		r := NewVector(0)
		if err := r.Restore(chunks); err != nil {
			t.Fatal(err)
		}
		if r.Len() != 100 {
			t.Fatalf("len = %d", r.Len())
		}
		for i := 0; i < 100; i++ {
			want := 0.0
			if i%3 == 0 {
				want = float64(i) + 0.25
			}
			if got := r.Get(i); math.Abs(got-want) > 1e-12 {
				t.Fatalf("maxBytes=%d elem %d = %f, want %f", maxBytes, i, got, want)
			}
		}
	}
}

func TestVectorSplitAndChunkSplit(t *testing.T) {
	v := NewVector(50)
	for i := 0; i < 50; i++ {
		v.Set(i, float64(i+1))
	}
	one := drainStream(t, v, 1<<20)
	if len(one) != 1 {
		t.Fatalf("streamed %d chunks, want 1", len(one))
	}
	split, err := SplitChunk(one[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewVector(0)
	if err := r.Restore(split); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if r.Get(i) != float64(i+1) {
			t.Fatalf("elem %d = %f", i, r.Get(i))
		}
	}
}

func TestNewByType(t *testing.T) {
	for _, tt := range []StoreType{TypeKVMap, TypeMatrix, TypeVector} {
		s, err := New(tt)
		if err != nil {
			t.Fatalf("New(%v): %v", tt, err)
		}
		if s.Type() != tt {
			t.Fatalf("New(%v).Type() = %v", tt, s.Type())
		}
		if tt.String() == "" {
			t.Fatal("empty type name")
		}
	}
	if _, err := New(TypeInvalid); err == nil {
		t.Fatal("New(invalid) should fail")
	}
	if _, err := SplitChunk(Chunk{Type: TypeInvalid}, 2); err == nil {
		t.Fatal("SplitChunk(invalid) should fail")
	}
	if _, err := SplitChunk(Chunk{Type: TypeKVMap}, 0); err != ErrBadSplit {
		t.Fatal("SplitChunk n=0 should fail")
	}
}

// TestVectorRejectsHostileLength: a vector's length comes from its
// entries, never from a header field. The bytes that once carried a
// length above what a float64 slice can address now read as an entry
// count the chunk cannot hold: ErrBadChunk, both for Restore and for
// SplitChunk, with nothing sized from the count. An element at an index a
// float64 slice cannot address is ErrBadChunk too; one at a far index it
// can restores into a single block, the vector as long as that index + 1.
func TestVectorRejectsHostileLength(t *testing.T) {
	for _, length := range []uint64{1 << 62, 1<<63 + 1} {
		e := newEncoder(16)
		e.uvarint(length)
		e.uvarint(0)
		c := Chunk{Type: TypeVector, Data: e.buf}
		if err := NewVector(0).Restore([]Chunk{c}); !errors.Is(err, ErrBadChunk) {
			t.Errorf("Restore(length %d) = %v, want ErrBadChunk", length, err)
		}
		if _, err := SplitChunk(c, 2); !errors.Is(err, ErrBadChunk) {
			t.Errorf("SplitChunk(length %d) = %v, want ErrBadChunk", length, err)
		}
	}
	far := func(i uint64) Chunk {
		e := newEncoder(16)
		e.uvarint(1)
		e.uvarint(i)
		e.buf = elemCodec{}.encode(e.buf, 7)
		return Chunk{Type: TypeVector, Data: e.buf}
	}
	if err := NewVector(0).Restore([]Chunk{far(1 << 62)}); !errors.Is(err, ErrBadChunk) {
		t.Errorf("Restore(element at 2^62) = %v, want ErrBadChunk", err)
	}
	v := NewVector(0)
	if err := v.Restore([]Chunk{far(1 << 40)}); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1<<40+1 || v.Get(1<<40) != 7 || v.SizeBytes() != 8<<40+8 {
		t.Fatalf("an element at index 2^40 gives Len %d, element %v", v.Len(), v.Get(1<<40))
	}
}

// TestRetiredStoreTypesRejected pins that the retired store tags (3, the
// dense matrix; 5, the sharded-dictionary tag) are refused wherever a chunk
// or a store type enters: construction, restore-time splitting and every
// store's Restore.
func TestRetiredStoreTypesRejected(t *testing.T) {
	for _, tag := range []StoreType{3, 5} {
		if _, err := New(tag); err == nil {
			t.Errorf("New(%d) succeeded", tag)
		}
		c := Chunk{Type: tag, Index: 0, Of: 1, Data: []byte{1, 2, 3}}
		if _, err := SplitChunk(c, 2); err == nil {
			t.Errorf("SplitChunk(type %d) succeeded", tag)
		}
		for _, st := range []Store{NewKVMap(), NewShardedKVMap(4), NewMatrix(), NewVector(0)} {
			if err := st.Restore([]Chunk{c}); !errors.Is(err, ErrWrongChunkType) {
				t.Errorf("%T.Restore(type %d) = %v, want ErrWrongChunkType", st, tag, err)
			}
		}
	}
}

func TestPartitionKeyStable(t *testing.T) {
	for k := uint64(0); k < 1000; k++ {
		p := PartitionKey(k, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
		if p2 := PartitionKey(k, 7); p2 != p {
			t.Fatal("PartitionKey not deterministic")
		}
	}
	if PartitionKey(123, 1) != 0 || PartitionKey(123, 0) != 0 {
		t.Fatal("degenerate n should map to 0")
	}
	// Distribution sanity: no partition should be empty over 1000 keys.
	counts := make([]int, 7)
	for k := uint64(0); k < 1000; k++ {
		counts[PartitionKey(k, 7)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d empty", i)
		}
	}
}
